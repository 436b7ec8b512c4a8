package query

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/trace"
)

// paperQueries are the Section 4.4 queries the trace_pipe benchmark
// runs, for a trace of the given horizon.
func paperQueries(horizon int) []string {
	return []string{
		"forall s in S [ Bus_busy(s) + Bus_free(s) <= 1 ]",
		"forall s in S [ inev(s, Bus_busy(C) + Bus_free(C) == 1) ]",
		"exists s in (S - {#0}) [ Empty_I_buffers(s) == 6 ]",
		"exists s in S [ exec_type_5(s) > 0 ]",
		fmt.Sprintf("forall s in {s2 in S | Bus_busy(s2) && time(s2) < %d} [ inev(s, Bus_free(C), true) ]", horizon-50),
	}
}

// pipelineSeqs simulates the processor once into both the columnar Seq
// and the oracle's row sequence.
func pipelineSeqs(tb testing.TB, horizon, seed int64) (*Seq, *rowSeq) {
	tb.Helper()
	net, err := pipeline.Processor(pipeline.DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	h := trace.HeaderOf(net)
	b, rb := NewBuilder(h), newRowBuilder(h)
	if _, err := sim.Run(context.Background(), net, trace.Tee{b, rb}, sim.Options{Horizon: horizon, Seed: seed}); err != nil {
		tb.Fatal(err)
	}
	return b.Seq(), rb.Seq()
}

// sameStates fails unless seq holds exactly the oracle's states.
func sameStates(t *testing.T, seq *Seq, rows *rowSeq) {
	t.Helper()
	if seq.Len() != rows.Len() || seq.FinalTime != rows.FinalTime {
		t.Fatalf("%d states ending at %d, oracle %d ending at %d", seq.Len(), seq.FinalTime, rows.Len(), rows.FinalTime)
	}
	for i, st := range rows.States {
		if seq.Time(i) != st.Time {
			t.Fatalf("state %d at time %d, oracle %d", i, seq.Time(i), st.Time)
		}
		for p, v := range st.Marking {
			if got := seq.Place(petri.PlaceID(p))[i]; got != v {
				t.Fatalf("state %d place %d = %d, oracle %d", i, p, got, v)
			}
		}
		for tr, v := range st.Active {
			if got := seq.Trans(petri.TransID(tr))[i]; got != v {
				t.Fatalf("state %d transition %d = %d, oracle %d", i, tr, got, v)
			}
		}
	}
}

// sameVerdict fails unless the compiled evaluator and the oracle agree
// on q: the same Result and the same error text.
func sameVerdict(t *testing.T, q *Query, seq *Seq, rows *rowSeq) {
	t.Helper()
	got, gotErr := q.Eval(seq)
	want, wantErr := rowEval(q, rows)
	if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s\ncompiled: %+v, %v\noracle:   %+v, %v", q, got, gotErr, want, wantErr)
	}
}

func TestPaperQueriesMatchOracle(t *testing.T) {
	const horizon = 40_000
	for _, seed := range []int64{1, 7, 1988} {
		seq, rows := pipelineSeqs(t, horizon, seed)
		sameStates(t, seq, rows)
		for _, src := range paperQueries(horizon) {
			q, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			sameVerdict(t, q, seq, rows)
		}
	}
}

// TestEvalAllocsIndependentOfLength: a compiled query allocates per
// Eval, never per state.
func TestEvalAllocsIndependentOfLength(t *testing.T) {
	allocs := func(horizon int64) float64 {
		seq, _ := pipelineSeqs(t, horizon, 3)
		var qs []*Query
		for _, src := range paperQueries(int(horizon)) {
			q, err := Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			qs = append(qs, q)
		}
		return testing.AllocsPerRun(3, func() {
			for _, q := range qs {
				if _, err := q.Eval(seq); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	if short, long := allocs(10_000), allocs(40_000); short != long {
		t.Errorf("five queries allocate %v times at horizon 10000, %v at 40000", short, long)
	}
}

func TestSeqFromReaderAllocsPerState(t *testing.T) {
	net, err := pipeline.Processor(pipeline.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	var col bytes.Buffer
	w := trace.NewColWriter(&col, trace.HeaderOf(net), false)
	if _, err := sim.Run(context.Background(), net, w, sim.Options{Horizon: 40_000, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	var n int
	allocs := testing.AllocsPerRun(3, func() {
		seq, err := SeqFromReader(trace.NewColReader(bytes.NewReader(col.Bytes())))
		if err != nil {
			t.Fatal(err)
		}
		n = seq.Len()
	})
	if per := allocs / float64(n); per >= 0.01 {
		t.Errorf("SeqFromReader: %v allocs for %d states, %.4f per state", allocs, n, per)
	}
}

// TestSeqIsASnapshot: a Seq keeps the states logged when it was taken.
// Records the Builder takes afterwards, before any column of the first
// Seq is laid out, change neither its length nor its values.
func TestSeqIsASnapshot(t *testing.T) {
	net, err := pipeline.Processor(pipeline.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	h := trace.HeaderOf(net)
	var recs []trace.Record
	collect := trace.ObserverFunc(func(rec *trace.Record) error {
		recs = append(recs, rec.Clone())
		return nil
	})
	if _, err := sim.Run(context.Background(), net, collect, sim.Options{Horizon: 2000, Seed: 5}); err != nil {
		t.Fatal(err)
	}
	half := len(recs) / 2
	feed := func(b *Builder, recs []trace.Record) {
		for i := range recs {
			if err := b.Record(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := NewBuilder(h)
	feed(want, recs[:half])
	b := NewBuilder(h)
	feed(b, recs[:half])
	early := b.Seq()
	feed(b, recs[half:])
	if late := b.Seq(); late.Len() <= early.Len() {
		t.Fatalf("later Seq has %d states, earlier %d", late.Len(), early.Len())
	}
	ref := want.Seq()
	if early.Len() != ref.Len() || early.FinalTime != ref.FinalTime {
		t.Fatalf("snapshot has %d states ending at %d, want %d ending at %d",
			early.Len(), early.FinalTime, ref.Len(), ref.FinalTime)
	}
	for p := range h.Places {
		if got, want := early.Place(petri.PlaceID(p)), ref.Place(petri.PlaceID(p)); !slices.Equal(got, want) {
			t.Fatalf("place %s changed after the snapshot", h.Places[p])
		}
	}
	for tr := range h.Trans {
		if got, want := early.Trans(petri.TransID(tr)), ref.Trans(petri.TransID(tr)); !slices.Equal(got, want) {
			t.Fatalf("transition %s changed after the snapshot", h.Trans[tr])
		}
	}
}

// TestSeqConcurrentEval: goroutines that evaluate queries on one fresh
// Seq race to lay out its columns; each gets the serial Results.
func TestSeqConcurrentEval(t *testing.T) {
	const horizon = 5000
	var qs []*Query
	for _, src := range paperQueries(horizon) {
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	eval := func(seq *Seq) ([]Result, error) {
		out := make([]Result, len(qs))
		for i, q := range qs {
			r, err := q.Eval(seq)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
	serial, _ := pipelineSeqs(t, horizon, 9)
	want, err := eval(serial)
	if err != nil {
		t.Fatal(err)
	}
	shared, _ := pipelineSeqs(t, horizon, 9)
	got := make([][]Result, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			got[g], errs[g] = eval(shared)
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(got[g], want) {
			t.Errorf("goroutine %d: %+v, serial %+v", g, got[g], want)
		}
	}
}

// pipelineRecords simulates the processor and returns its header and
// every record, each a copy of its own.
func pipelineRecords(tb testing.TB, horizon, seed int64) (trace.Header, []trace.Record) {
	tb.Helper()
	net, err := pipeline.Processor(pipeline.DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	var recs []trace.Record
	collect := trace.ObserverFunc(func(rec *trace.Record) error {
		recs = append(recs, rec.Clone())
		return nil
	})
	if _, err := sim.Run(context.Background(), net, collect, sim.Options{Horizon: horizon, Seed: seed}); err != nil {
		tb.Fatal(err)
	}
	return trace.HeaderOf(net), recs
}

// feed passes each record to every observer, failing on an error.
func feed(tb testing.TB, recs []trace.Record, obs ...trace.Observer) {
	tb.Helper()
	for i := range recs {
		for _, o := range obs {
			if err := o.Record(&recs[i]); err != nil {
				tb.Fatal(err)
			}
		}
	}
}

// TestBuilderBytesPerState: the Builder allocates about what its log
// holds, 16 bytes per state (time, transition, end of its deltas) and 12
// per delta (place, change), and at most 1.25 times that. On this trace
// (76,450 states, 116,685 deltas) the log holds 34.3 B/state; a log of
// five slices grown by append allocated 183.2 B/state, because every
// regrowth copies and re-zeroes the entries logged so far.
func TestBuilderBytesPerState(t *testing.T) {
	h, recs := pipelineRecords(t, 40_000, 3)
	deltas := 0
	for i := range recs {
		deltas += len(recs[i].Deltas)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := NewBuilder(h)
	feed(t, recs, b)
	seq := b.Seq()
	runtime.ReadMemStats(&after)
	n := float64(seq.Len())
	got := float64(after.TotalAlloc-before.TotalAlloc) / n
	logged := (16*n + 12*float64(deltas)) / n
	t.Logf("%.1f B/state allocated, %.1f B/state logged", got, logged)
	if got > 1.25*logged {
		t.Errorf("Builder allocated %.1f B/state to log %.1f B/state (%d states, %d deltas)", got, logged, seq.Len(), deltas)
	}
}

// boundaryTrace returns a trace over the fuzz names with exactly states
// states, whose events carry deltas token deltas in all, spread at
// random over them, and ends with a Final record.
func boundaryTrace(states, deltas int, seed int64) (trace.Header, []trace.Record) {
	rng := rand.New(rand.NewSource(seed))
	h := trace.Header{Net: "chunks", Places: fuzzPlaces, Trans: fuzzTrans}
	per := make([]int, states-1)
	for i := 0; i < deltas; i++ {
		per[rng.Intn(len(per))]++
	}
	recs := []trace.Record{{Kind: trace.Initial, Marking: petri.Marking{1, 0, 6}}}
	var tm petri.Time
	for _, k := range per {
		tm += petri.Time(rng.Intn(3))
		rec := trace.Record{Kind: trace.Start, Time: tm, Trans: petri.TransID(rng.Intn(len(h.Trans)))}
		if rng.Intn(2) == 1 {
			rec.Kind = trace.End
		}
		for i := 0; i < k; i++ {
			rec.Deltas = append(rec.Deltas, trace.Delta{Place: petri.PlaceID(rng.Intn(len(h.Places))), Change: rng.Intn(5) - 2})
		}
		recs = append(recs, rec)
	}
	return h, append(recs, trace.Record{Kind: trace.Final, Time: tm + 1})
}

// chunkQueries read every state's time, duration, places and
// transitions; none is decided before the last state.
var chunkQueries = []string{
	"forall s in S [ time(s) + dur(s) >= time(s) ]",
	"exists s in S [ Bus_busy(s) + Bus_free(s) + Empty_I_buffers(s) == 100000 ]",
	"exists s in S [ exec_type_5(s) - Issue(s) == 100000 ]",
	"forall s in S [ inev(s, index(C) == index(s), Bus_free(C) < 100000) ]",
}

// TestBuilderChunkBoundaries holds the chunked log to the row oracle on
// traces whose state and delta counts land just before, on and just
// after a chunk boundary, and past three chunks; and on one state whose
// deltas span four chunks. Snapshots taken at and between chunk
// boundaries must not change as the Builder appends, even while another
// goroutine evaluates one.
func TestBuilderChunkBoundaries(t *testing.T) {
	counts := []int{chunkSize - 1, chunkSize, chunkSize + 1, 3*chunkSize + 1}
	type shape struct{ states, deltas int }
	shapes := []shape{{2, 3*chunkSize + 1}}
	for _, s := range counts {
		for _, d := range counts {
			shapes = append(shapes, shape{s, d})
		}
	}
	var qs []*Query
	for _, src := range chunkQueries {
		q, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	for _, sh := range shapes {
		h, recs := boundaryTrace(sh.states, sh.deltas, int64(sh.states*31+sh.deltas))
		b, rb := NewBuilder(h), newRowBuilder(h)
		feed(t, recs, b, rb)
		if b.times.n != sh.states || b.dPlace.n != sh.deltas || b.dChange.n != sh.deltas {
			t.Fatalf("logged %d states and %d/%d deltas, want %d and %d",
				b.times.n, b.dPlace.n, b.dChange.n, sh.states, sh.deltas)
		}
		seq, rows := b.Seq(), rb.Seq()
		sameStates(t, seq, rows)
		for _, q := range qs {
			sameVerdict(t, q, seq, rows)
		}
	}

	h, recs := boundaryTrace(3*chunkSize+1, 5*chunkSize, 99)
	// prefix returns the oracle's sequence of the states the first k
	// records enter.
	prefix := func(k int) *rowSeq {
		rb := newRowBuilder(h)
		feed(t, recs[:k], rb)
		return rb.Seq()
	}

	t.Run("snapshots", func(t *testing.T) {
		b := NewBuilder(h)
		at, mid := chunkSize, 2*chunkSize+chunkSize/2
		feed(t, recs[:at], b)
		atSeq := b.Seq()
		feed(t, recs[at:mid], b)
		midSeq := b.Seq()
		feed(t, recs[mid:], b)
		if b.times.n != 3*chunkSize+1 {
			t.Fatalf("logged %d states", b.times.n)
		}
		sameStates(t, atSeq, prefix(at))
		sameStates(t, midSeq, prefix(mid))
		sameStates(t, b.Seq(), prefix(len(recs)))
	})

	t.Run("eval while appending", func(t *testing.T) {
		b := NewBuilder(h)
		mid := chunkSize + chunkSize/2
		feed(t, recs[:mid], b)
		seq := b.Seq()
		got := make([]Result, len(qs))
		errs := make([]error, len(qs))
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i, q := range qs {
				got[i], errs[i] = q.Eval(seq)
			}
		}()
		feed(t, recs[mid:], b)
		<-done
		rows := prefix(mid)
		for i, q := range qs {
			want, wantErr := rowEval(q, rows)
			if got[i] != want || fmt.Sprint(errs[i]) != fmt.Sprint(wantErr) {
				t.Errorf("%s\ncompiled: %+v, %v\noracle:   %+v, %v", q, got[i], errs[i], want, wantErr)
			}
		}
		sameStates(t, seq, rows)
	})
}

// Names of the synthetic fuzz traces: the paper's, so its queries run.
var (
	fuzzPlaces = []string{"Bus_busy", "Bus_free", "Empty_I_buffers"}
	fuzzTrans  = []string{"exec_type_5", "Issue"}
)

// fuzzTrace decodes fuzz bytes into a short trace. Byte 0 picks one to
// three places and one or two transitions, and its flag bits name
// transition 0 after place 0 (0x40), drop every record (0x20) and end
// the run with a Final record (0x80). Then come the initial marking, a
// byte per place, and up to 64 Start/End records of three bytes each:
// kind and transition, time step, and one place delta.
func fuzzTrace(data []byte) (trace.Header, []trace.Record) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	b := next()
	np, nt := 1+int(b%3), 1+int(b/3%2)
	h := trace.Header{Net: "fuzz", Places: fuzzPlaces[:np], Trans: append([]string(nil), fuzzTrans[:nt]...)}
	if b&0x40 != 0 {
		h.Trans[0] = h.Places[0]
	}
	if b&0x20 != 0 {
		return h, nil
	}
	m := make(petri.Marking, np)
	for p := range m {
		m[p] = int(next() % 4)
	}
	recs := []trace.Record{{Kind: trace.Initial, Marking: m}}
	var tm petri.Time
	for k := 0; k < 64 && len(data) >= 3; k++ {
		op, step, d := next(), next(), next()
		rec := trace.Record{Kind: trace.Start, Trans: petri.TransID(int(op>>1) % nt)}
		if op&1 != 0 {
			rec.Kind = trace.End
		}
		tm += petri.Time(step % 3)
		rec.Time = tm
		if change := int(d%5) - 2; change != 0 {
			rec.Deltas = []trace.Delta{{Place: petri.PlaceID(int(d/5) % np), Change: change}}
		}
		recs = append(recs, rec)
	}
	if b&0x80 != 0 {
		recs = append(recs, trace.Record{Kind: trace.Final, Time: tm + 1})
	}
	return h, recs
}

// fuzzSeeds are query sources that exercise each evaluation path: the
// paper's five queries, nested and forward-scanning inev, a quantifier
// variable named C, errors that short-circuiting must not raise, errors
// an inev table must carry back, and empty sets.
var fuzzSeeds = []string{
	"forall s in S [ Bus_busy(s) + Bus_free(s) <= 1 ]",
	"forall s in S [ inev(s, Bus_busy(C) + Bus_free(C) == 1) ]",
	"exists s in (S - {#0}) [ Empty_I_buffers(s) == 2 ]",
	"exists s in S [ exec_type_5(s) > 0 ]",
	"forall s in {s2 in S | Bus_busy(s2) && time(s2) < 40} [ inev(s, Bus_free(C), true) ]",
	"forall s in S [ inev(s, inev(C, Bus_free(C) > 1, Bus_busy(C)), Issue(C) == 0) ]",
	"exists s in S [ inev(s, inev(C, index(C) > 3 && Bus_busy(C) == 0)) ]",
	"exists s in S [ inev(s, Bus_free(C) > Bus_free(s), Bus_busy(C)) ]",
	"forall s in S [ inev(s, index(C) > index(s) + 2, dur(C) == 0 || Issue(C) > 0) ]",
	"forall s in S [ inev(s, inev(C, Bus_busy(C) < Bus_busy(s))) ]",
	"forall C in S [ inev(C, Bus_busy(C) > 0) || dur(C) == 0 ]",
	"exists C in S [ !inev(C, index(C) > 1) ]",
	"exists C in {C in S | inev(C, exec_type_5(C))} [ inev(C, C2(C), time(C) > 1) ]",
	"forall s in S [ false && Bus_busy(x) > 0 ]",
	"exists s in S [ true || Nope(s) ]",
	"forall s in S [ Bus_busy(s) == 0 || 1 / 0 == 1 ]",
	"forall s in S [ Bus_busy(s) > 5 && Nope(s) / 0 ]",
	"forall s in S [ inev(s, Bus_free(C) / (Bus_busy(C) - 1) > 0) ]",
	"exists s in S [ inev(s, 1 / (index(C) - 2) == 5) ]",
	"exists s in (S - {#0, #1}) [ inev(s, 1 / (index(C) - 2) == 5 || Nope(C)) ]",
	"exists s in S [ inev(s, Bus_busy(C) > 1, 1 / Issue(C)) ]",
	"exists s in S [ inev(s, Bus_busy(C) > 1, Issue(C) > 0 || x(y)) ]",
	"forall s in S [ inev(x, 1) ]",
	"forall s in {x in S | Bus_busy(x)} [ Bus_busy(x) ]",
	"forall s in {x in S | 0} [ Nope(q) / 0 ]",
	"exists s in {x in {y in S | false} | x(x)} [ 1 ]",
	"exists s in (S - {#0, #1, #99}) [ -Bus_free(s) * 3 != !Issue(s) - 1 ]",
}

func FuzzQuery(f *testing.F) {
	traces := [][]byte{
		{0x82, 1, 0, 2, 0, 1, 7, 1, 0, 13, 2, 1, 3, 3, 2, 12, 1, 1, 11, 0, 0, 2},
		{0xc4, 0, 1, 2, 3, 1, 8},
		{0x20},
	}
	for i, src := range fuzzSeeds {
		f.Add(traces[0], src)
		f.Add(traces[1+i%2], src)
	}
	f.Fuzz(func(t *testing.T, data []byte, src string) {
		q, err := Parse(src)
		// Each inev level multiplies the forward scan's cost by the trace
		// length; cap the nesting so one input stays fast.
		if err != nil || len(src) > 512 || strings.Count(src, "inev") > 2 {
			return
		}
		h, recs := fuzzTrace(data)
		b, rb := NewBuilder(h), newRowBuilder(h)
		for i := range recs {
			if err := b.Record(&recs[i]); err != nil {
				t.Fatal(err)
			}
			if err := rb.Record(&recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		seq, rows := b.Seq(), rb.Seq()
		sameStates(t, seq, rows)
		sameVerdict(t, q, seq, rows)
	})
}
