package reach

import (
	"context"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/petri"
)

// TimeAdvance labels the edges of a timed graph that advance the clock
// to the next event (completing any firings that become due) rather
// than starting a transition. Graph.Advance gives the amount.
const TimeAdvance = -1

// A timed state [RP84] is a marking plus the remaining firing times of
// in-progress transitions and the remaining enabling times of enabled
// transitions. Only relative times appear, so behaviourally identical
// states merge regardless of absolute clock. Its row is the marking's
// row (appendMarking), then the pending count, the (transition,
// remaining firing time) pairs sorted by time and then transition, and
// the (transition, remaining enabling time) pairs of the enabled
// transitions in ascending transition order, every number a uvarint.
// The pending count delimits the two lists, so the encoding is
// injective and the frontier dedups timed states byte for byte, as it
// does markings.

// timer is one (transition, remaining time) pair of a timed state.
type timer struct {
	t    int32
	left petri.Time
}

// walkTimers calls fn for each timer of a timed row in row order:
// first the pending firings, then the enabling timers.
func walkTimers(row []byte, places int, fn func(pending bool, tm timer)) {
	off := 0
	for p := 0; p < places; off++ { // skip the marking: a uvarint ends on a byte below 0x80
		if row[off] < 0x80 {
			p++
		}
	}
	n, k := binary.Uvarint(row[off:])
	off += k
	for pending := int(n); off < len(row); pending-- {
		t, k1 := binary.Uvarint(row[off:])
		left, k2 := binary.Uvarint(row[off+k1:])
		off += k1 + k2
		fn(pending > 0, timer{t: int32(t), left: petri.Time(left)})
	}
}

// rowAdvance returns the clock advance out of a timed row, the least of
// its pending firing times and positive enabling times, and false if
// no timer runs.
func rowAdvance(row []byte, places int) (delta petri.Time, ok bool) {
	walkTimers(row, places, func(pending bool, tm timer) {
		if (pending || tm.left > 0) && (!ok || tm.left < delta) {
			delta, ok = tm.left, true
		}
	})
	return delta, ok
}

// Advance returns the clock advance of node id of a timed graph: the
// amount its TimeAdvance edge, if it has one, moves the clock. It is 0
// on an untimed graph.
func (g *Graph) Advance(id int) petri.Time {
	if !g.timed {
		return 0
	}
	var scratch []byte
	row := g.store.Row(id, &scratch)
	if len(row) == 0 { // a failed spill read: the store's error sticks
		return 0
	}
	delta, _ := rowAdvance(row, g.Net.NumPlaces())
	return delta
}

// EachAdvance calls fn, in id order, for each node of a timed graph
// whose edge is a TimeAdvance, with the amount that edge moves the
// clock: Advance for every such node in one walk over the rows, which
// reads a spilled store a block at a time where Advance reads a whole
// block per node. It calls fn for no node of an untimed graph. A failed
// spill read ends the walk early; the store's error sticks (see Err).
func (g *Graph) EachAdvance(fn func(id int, delta petri.Time)) {
	if !g.timed {
		return
	}
	places := g.Net.NumPlaces()
	g.store.rows(0, len(g.Nodes), func(id int, row []byte) bool {
		if out := g.Nodes[id].Out; len(out) == 1 && out[0].Trans == TimeAdvance {
			delta, _ := rowAdvance(row, places)
			fn(id, delta)
		}
		return true
	})
}

// constDelay extracts a constant delay, rejecting distributions.
func constDelay(d petri.Delay, kind, trans string) (petri.Time, error) {
	v, ok := constOf(d)
	if !ok {
		return 0, fmt.Errorf("reach: %s time of %q is not constant; the timed graph requires deterministic delays", kind, trans)
	}
	return v, nil
}

// timedValidate rejects nets the timed construction cannot handle:
// interpreted nets and non-constant delays.
func timedValidate(net *petri.Net) error {
	if net.Interpreted() {
		return fmt.Errorf("reach: net %q is interpreted; the timed graph requires a plain net", net.Name)
	}
	for i := range net.Trans {
		if _, err := constDelay(net.Trans[i].Firing, "firing", net.Trans[i].Name); err != nil {
			return err
		}
		if _, err := constDelay(net.Trans[i].Enabling, "enabling", net.Trans[i].Name); err != nil {
			return err
		}
	}
	return nil
}

func constOf(d petri.Delay) (petri.Time, bool) {
	if d == nil {
		return 0, true
	}
	return d.Const()
}

// BuildTimed constructs the timed reachability graph. The construction
// follows the simulator's semantics exactly, but branches over every
// ripe transition where the simulator draws one at random; firing
// frequencies are therefore irrelevant here (except that frequency-0
// transitions never fire). Nets with non-constant delays, predicates or
// actions are rejected.
//
// Like Build, the search is the sharded frontier of explore over
// opt.Shards goroutines, so the graph is bit-identical to a serial FIFO
// construction for any shard count — including after truncation: past
// MaxStates no state is added, but the drain continues and later
// levels still attach edges between committed states. ctx is checked
// at every window barrier.
func BuildTimed(ctx context.Context, net *petri.Net, opt Options) (*Graph, error) {
	sp, err := newTimedSpace(net, opt)
	if err != nil {
		return nil, err
	}
	return sp.finish(explore[rowSucc](ctx, sp, sp.root, sp.shards, &sp.g.Stats))
}

// timedSpace is the timed state space: graphSpace's rows, dedup, edge
// blocks and commit, with an expand that writes timed rows. Start
// edges are labelled by their transition, time advances by
// TimeAdvance.
type timedSpace struct {
	*graphSpace
	firing, enabling []petri.Time // per transition: its constant delays
	tbufs            []timedBuf   // per shard
}

// timedBuf is one shard's reused scratch for decoding a timed state and
// writing its successors.
type timedBuf struct {
	next       petri.Marking
	pend, enab []timer // the state being expanded
	npend      []timer // a successor's pending firings
	aged       []timer // the enabling timers after a time advance
	active     []int32 // per transition: its firings in npend
}

// newTimedSpace validates net and commits the initial state as node 0.
func newTimedSpace(net *petri.Net, opt Options) (*timedSpace, error) {
	if err := timedValidate(net); err != nil {
		return nil, err
	}
	gs := newSpace(net, opt, true)
	nt := len(net.Trans)
	s := &timedSpace{graphSpace: gs, firing: make([]petri.Time, nt), enabling: make([]petri.Time, nt), tbufs: make([]timedBuf, gs.shards)}
	for t := range net.Trans {
		s.firing[t], _ = constOf(net.Trans[t].Firing)
		s.enabling[t], _ = constOf(net.Trans[t].Enabling)
	}
	for w := range s.tbufs {
		s.tbufs[w].next = make(petri.Marking, gs.places)
		s.tbufs[w].active = make([]int32, nt)
	}
	m0 := net.InitialMarking()
	root, err := s.appendState(nil, 0, m0, nil, nil, -1)
	if err != nil {
		return nil, err
	}
	gs.start(root, m0)
	return s, nil
}

// expand writes the rows of each state's successors into shard w's
// arena: one start per ripe transition (enabling time 0), in ascending
// transition order, or, when none is ripe, one time advance by
// rowAdvance. A state with neither is a deadlock.
func (s *timedSpace) expand(w, lo, hi int, succ func(int, rowSucc)) error {
	net := s.g.Net
	buf, tb := &s.bufs[w], &s.tbufs[w]
	arena := buf.arena[:0]
	var err error
	s.g.store.Span(lo, hi, func(id int, m petri.Marking, row []byte) bool {
		pend, enab := tb.pend[:0], tb.enab[:0]
		walkTimers(row, s.places, func(pending bool, tm timer) {
			if pending {
				pend = append(pend, tm)
			} else {
				enab = append(enab, tm)
			}
		})
		tb.pend, tb.enab = pend, enab
		started := false
		for _, e := range enab {
			if e.left != 0 {
				continue
			}
			started = true
			next := append(tb.next[:0], m...)
			t := petri.TransID(e.t)
			net.Consume(t, next)
			npend := append(tb.npend[:0], pend...)
			if f := s.firing[t]; f == 0 {
				net.Produce(t, next)
			} else {
				i := 0
				for i < len(npend) && (npend[i].left < f || npend[i].left == f && npend[i].t < e.t) {
					i++
				}
				npend = slices.Insert(npend, i, timer{t: e.t, left: f})
			}
			tb.npend = npend
			off := len(arena)
			if arena, err = s.appendState(arena, w, next, npend, enab, e.t); err != nil {
				return false
			}
			succ(id, rowSucc{w: int32(w), t: e.t, off: uint32(off), end: uint32(len(arena))})
		}
		if started {
			return true
		}
		delta, ok := rowAdvance(row, s.places)
		if !ok {
			return true
		}
		next, npend := append(tb.next[:0], m...), tb.npend[:0]
		for _, p := range pend {
			if p.left-delta == 0 {
				net.Produce(petri.TransID(p.t), next)
			} else {
				npend = append(npend, timer{t: p.t, left: p.left - delta})
			}
		}
		aged := tb.aged[:0]
		for _, e := range enab {
			aged = append(aged, timer{t: e.t, left: max(e.left-delta, 0)})
		}
		tb.npend, tb.aged = npend, aged
		off := len(arena)
		if arena, err = s.appendState(arena, w, next, npend, aged, -1); err != nil {
			return false
		}
		succ(id, rowSucc{w: int32(w), t: TimeAdvance, off: uint32(off), end: uint32(len(arena))})
		return true
	})
	buf.arena = arena
	if err == nil {
		err = arenaErr(arena)
	}
	return err
}

// appendState appends, with shard w's scratch, the row of the timed
// state with marking m and pending firings pend, and computes its
// enabling timers over the candidate transitions of m: a transition
// with frequency 0, or with all its servers busy, is not enabled; an
// enabled one keeps its timer from prev unless it is restart (the one
// that just started) or was not enabled before, and then starts its
// enabling time afresh.
func (s *timedSpace) appendState(b []byte, w int, m petri.Marking, pend, prev []timer, restart int32) ([]byte, error) {
	net, tb, cand := s.g.Net, &s.tbufs[w], s.bufs[w].cand
	b = appendMarking(b, m)
	b = binary.AppendUvarint(b, uint64(len(pend)))
	for _, p := range pend {
		tb.active[p.t]++
		b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(p.t)), uint64(p.left))
	}
	s.candidates(cand, m)
	for i, word := range cand {
		for ; word != 0; word &= word - 1 {
			ti := i*64 + bits.TrailingZeros64(word)
			tr := &net.Trans[ti]
			if tr.EffFreq() == 0 || tr.Servers > 0 && int(tb.active[ti]) >= tr.Servers {
				continue
			}
			ok, err := net.Enabled(petri.TransID(ti), m, nil)
			if err != nil {
				return b, err
			}
			if !ok {
				continue
			}
			for len(prev) > 0 && int(prev[0].t) < ti {
				prev = prev[1:]
			}
			left := s.enabling[ti]
			if len(prev) > 0 && int(prev[0].t) == ti && int32(ti) != restart {
				left = prev[0].left
			}
			b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(ti)), uint64(left))
		}
	}
	for _, p := range pend {
		tb.active[p.t]--
	}
	return b, nil
}
