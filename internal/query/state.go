// Package query implements the trace-verification language of Section
// 4.4: first-order queries over the states of a simulation trace
// ("forall s in S [...]", "exists s in (S - {#0}) [...]") with the
// temporal operator inev, as used by Tracertool and inspired by the
// reachability-graph analyzer of [MR87].
//
// Example queries, straight from the paper (hyphens written as
// underscores):
//
//	forall s in S [ Bus_busy(s) + Bus_free(s) == 1 ]
//	exists s in (S - {#0}) [ Empty_I_buffers(s) == 6 ]
//	exists s in S [ exec_type_5(s) > 0 ]
//	forall s in {s2 in S | Bus_busy(s2) > 0} [ inev(s, Bus_free(C) > 0, true) ]
//
// A name applied to a state variable denotes the token count of the
// place (or the number of concurrent firings of the transition) with
// that name in that state. Inside inev, C denotes the state being
// examined along the future of the bound state. The paper writes bare
// condition names where we require explicit comparisons ("Bus_busy(s)"
// as a boolean); both are accepted — a bare application in boolean
// position means "> 0".
//
// A Seq stores the states column by column: one []int per place and
// per transition, plus the state times. It holds the Builder's compact
// record log and replays a column from it the first time the column is
// read, so a query pays only for the places and transitions it names:
// usually a handful of a net's, as Section 4.1 observes. The log is kept
// in fixed-size chunks: logging a state never copies or re-zeroes an
// earlier one, and a Seq taken from a live Builder shares every chunk,
// the last one included, clipped at its length. Eval compiles
// the query against the Seq's header first, so every name resolves to
// its column and every state variable to a frame slot before any state
// is read; the columns are laid out then, under the Seq's lock, and the
// evaluation loop reads them without one. An inev whose conditions read
// only its own C is tabulated once per Eval by one backward pass over
// the states, so each inev costs O(n) per Eval rather than O(n) per
// bound state; an inev whose conditions read an enclosing variable keeps
// the forward scan. Verdicts, witnesses and errors are those of the
// plain tree-walking reading.
package query

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/petri"
	"repro/internal/trace"
)

// Seq is the full state sequence of a trace, as consumed by queries and
// by Tracertool. State #i is the marking and the concurrent-firing
// counts after applying the first i+1 state records of the trace.
//
// A Seq is safe for concurrent use. Its columns are laid out lazily, on
// first read, and cached.
type Seq struct {
	Header trace.Header
	// FinalTime is the clock at the end of the run (from the Final
	// record), which may exceed the time of the last state.
	FinalTime petri.Time

	// The Builder's log as it stood when Seq was called, the last chunk
	// of each list clipped at its last entry: the Builder only writes
	// past the clips, so the Seq never changes.
	times   chunks[petri.Time]
	initial petri.Marking
	trans   chunks[int32]
	dEnd    chunks[int32]
	dPlace  chunks[int32]
	dChange chunks[int]

	mu sync.Mutex
	// cols holds one column of Len() values per place, then one per
	// transition; nil until first read.
	cols [][]int
}

// Len returns the number of states.
func (q *Seq) Len() int { return q.times.n }

// Time returns the simulation clock at which state i was entered.
func (q *Seq) Time(i int) petri.Time { return q.times.at(i) }

// Place returns the token count of place id in every state. The slice
// is a read-only view into the sequence.
func (q *Seq) Place(id petri.PlaceID) []int { return q.col(int(id)) }

// Trans returns the concurrent-firing count of transition id in every
// state. The slice is a read-only view into the sequence.
func (q *Seq) Trans(id petri.TransID) []int { return q.col(len(q.Header.Places) + int(id)) }

// col returns column c, replaying it from the log on first read.
func (q *Seq) col(c int) []int {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.cols == nil {
		q.cols = make([][]int, len(q.Header.Places)+len(q.Header.Trans))
	}
	if q.cols[c] == nil {
		q.cols[c] = q.replay(c)
	}
	return q.cols[c]
}

// replay lays out column c: a place's count starts at its initial
// marking and moves by its deltas, a transition's by one at each Start
// and End.
func (q *Seq) replay(c int) []int {
	col := make([]int, q.Len())
	if len(col) == 0 {
		return col
	}
	np := len(q.Header.Places)
	if c < np {
		// dp and dc hold one chunk of deltas, from log index base on,
		// and dp[j] is the next delta to apply. A state's deltas end
		// before dp[e], or in a later chunk when e runs past dp.
		v, base, j, s := q.initial[c], 0, 0, 0
		var dp []int32
		var dc []int
		for _, ends := range q.dEnd.list {
			for _, end := range ends {
				e := int(end) - base
				for e > len(dp) {
					for ; j < len(dp); j++ {
						if int(dp[j]) == c {
							v += dc[j]
						}
					}
					base, e = base+len(dp), e-len(dp)
					dp, dc, j = q.dPlace.list[base/chunkSize], q.dChange.list[base/chunkSize], 0
				}
				for ; j < e; j++ {
					if int(dp[j]) == c {
						v += dc[j]
					}
				}
				col[s] = v
				s++
			}
		}
		return col
	}
	id, v, s := int32(c-np)+1, 0, 0
	for _, ts := range q.trans.list {
		for _, t := range ts {
			switch t {
			case id:
				v++
			case -id:
				v--
			}
			col[s] = v
			s++
		}
	}
	return col
}

// Column resolves name to its Place or Trans column; a place wins over
// a transition of the same name.
func (q *Seq) Column(name string) ([]int, bool) {
	if id, ok := q.Header.PlaceID(name); ok {
		return q.Place(id), true
	}
	if id, ok := q.Header.TransID(name); ok {
		return q.Trans(id), true
	}
	return nil, false
}

// KnownName reports whether name denotes a place or transition.
func (q *Seq) KnownName(name string) bool {
	if _, ok := q.Header.PlaceID(name); ok {
		return true
	}
	_, ok := q.Header.TransID(name)
	return ok
}

// chunkSize is the number of entries in each chunk of the record log.
const chunkSize = 4096

// chunks is an append-only list of n entries in chunks of chunkSize. A
// chunk is allocated whole and never reallocated, so an entry once
// logged stays where it is, and logging one stores no pointer, so it
// never pays a GC write barrier.
type chunks[T any] struct {
	list [][]T
	n    int
}

// push appends v, starting a new chunk when the last one is full.
func (c *chunks[T]) push(v T) {
	i := uint(c.n) % chunkSize
	if i == 0 {
		c.list = append(c.list, make([]T, chunkSize))
	}
	c.list[len(c.list)-1][i] = v
	c.n++
}

// at returns entry i.
func (c *chunks[T]) at(i int) T { return c.list[uint(i)/chunkSize][uint(i)%chunkSize] }

// clip returns a copy of c whose chunks end at the last entry, so that
// ranging over them reads exactly the entries logged so far. It shares
// the entries; later pushes to c land past the clip and never show in
// the copy.
func (c *chunks[T]) clip() chunks[T] {
	list := append([][]T(nil), c.list...)
	if k := c.n % chunkSize; k != 0 {
		list[len(list)-1] = list[len(list)-1][:k:k]
	}
	return chunks[T]{list, c.n}
}

// Builder accumulates a Seq from a record stream; it implements
// trace.Observer so it can be driven directly by the simulator or by
// trace.Copy from a stored trace. It logs each state record compactly,
// in chunks; a Seq replays its columns from that log.
type Builder struct {
	header  trace.Header
	initial petri.Marking
	final   petri.Time
	started bool
	ended   bool // a Final record was seen

	// One entry per state: its time, and the transition whose Start
	// (id+1) or End (-(id+1)) record entered it; 0 for the initial state.
	times chunks[petri.Time]
	trans chunks[int32]
	// The token deltas of state i are entries dEnd(i-1) to dEnd(i) of
	// dPlace and dChange, whose chunks break at the same entries.
	dEnd    chunks[int32]
	dPlace  chunks[int32]
	dChange chunks[int]
}

// NewBuilder returns a sequence builder for traces described by h.
func NewBuilder(h trace.Header) *Builder {
	return &Builder{header: h}
}

// Record implements trace.Observer. A record is validated in full
// before it changes the builder: a rejected record leaves it as it was.
func (b *Builder) Record(rec *trace.Record) error {
	if b.ended {
		return fmt.Errorf("query: %s record after the final record", rec.Kind)
	}
	switch rec.Kind {
	case trace.Initial:
		if b.started {
			return fmt.Errorf("query: second initial record")
		}
		if len(rec.Marking) != len(b.header.Places) {
			return fmt.Errorf("query: initial marking has %d places, header has %d",
				len(rec.Marking), len(b.header.Places))
		}
		b.initial = rec.Marking.Clone()
		b.started = true
		b.push(rec.Time, 0)
	case trace.Start, trace.End:
		if !b.started {
			return fmt.Errorf("query: trace event before initial state")
		}
		for _, d := range rec.Deltas {
			if d.Place < 0 || int(d.Place) >= len(b.header.Places) {
				return fmt.Errorf("query: delta for unknown place %d", d.Place)
			}
		}
		if rec.Trans < 0 || int(rec.Trans) >= len(b.header.Trans) {
			return fmt.Errorf("query: event for unknown transition %d", rec.Trans)
		}
		for _, d := range rec.Deltas {
			b.dPlace.push(int32(d.Place))
			b.dChange.push(d.Change)
		}
		t := int32(rec.Trans) + 1
		if rec.Kind == trace.End {
			t = -t
		}
		b.push(rec.Time, t)
	case trace.Final:
		b.final = rec.Time
		b.ended = true
	default:
		return fmt.Errorf("query: unknown record kind %q", rec.Kind)
	}
	return nil
}

func (b *Builder) push(t petri.Time, trans int32) {
	b.times.push(t)
	b.trans.push(trans)
	b.dEnd.push(int32(b.dPlace.n))
}

// Seq returns the sequence of the states logged so far. It shares the
// log rather than copying it: records the Builder takes afterwards do
// not change the returned Seq.
func (b *Builder) Seq() *Seq {
	seq := &Seq{
		Header:    b.header,
		FinalTime: b.final,
		times:     b.times.clip(),
		initial:   b.initial,
		trans:     b.trans.clip(),
		dEnd:      b.dEnd.clip(),
		dPlace:    b.dPlace.clip(),
		dChange:   b.dChange.clip(),
	}
	if n := seq.Len(); seq.FinalTime == 0 && n > 0 {
		seq.FinalTime = seq.Time(n - 1)
	}
	return seq
}

// SeqFromReader drains a stored trace into a Seq. It accepts either
// codec's reader (or anything else that streams records).
func SeqFromReader(r trace.RecordReader) (*Seq, error) {
	h, err := r.Header()
	if err != nil {
		return nil, err
	}
	b := NewBuilder(h)
	for {
		rec, err := r.Next()
		if err == io.EOF {
			return b.Seq(), nil
		}
		if err != nil {
			return nil, err
		}
		if err := b.Record(&rec); err != nil {
			return nil, err
		}
	}
}
