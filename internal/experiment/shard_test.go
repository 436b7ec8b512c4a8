package experiment

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// TestParseAxisRange is the table for the lo:hi:step axis syntax.
func TestParseAxisRange(t *testing.T) {
	cases := []struct {
		in   string
		want []float64
		err  string // substring of the expected error, "" for success
	}{
		{in: "X=1,5,12", want: []float64{1, 5, 12}},
		{in: "X=0:1:0.25", want: []float64{0, 0.25, 0.5, 0.75, 1}},
		{in: "X=0:1:0.1", want: []float64{0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6000000000000001, 0.7000000000000001, 0.8, 0.9, 1}},
		{in: "X=1:5:1,12", want: []float64{1, 2, 3, 4, 5, 12}},
		{in: "X=10:2:-4", want: []float64{10, 6, 2}},
		{in: "X=3:3:1", want: []float64{3}},
		{in: "X=1:2:5", want: []float64{1}}, // step overshoots: lo only
		// Endpoint clamp regressions: lo+n*step may overshoot hi by an
		// ulp; the final value must be exactly hi (so a range agrees with
		// the equivalent explicit list), ascending and descending.
		{in: "X=0:0.7:0.1", want: []float64{0, 0.1, 0.2, 0.30000000000000004, 0.4, 0.5, 0.6000000000000001, 0.7}},
		{in: "X=0.7:0:-0.1", want: []float64{0.7, 0.6, 0.49999999999999994, 0.3999999999999999, 0.29999999999999993, 0.19999999999999996, 0.09999999999999987, 0}},
		// ... but a range that genuinely stops short of hi is not
		// clamped: 0.9 is not "within tolerance" of 1.
		{in: "X=0:1:0.3", want: []float64{0, 0.3, 0.6, 0.8999999999999999}},
		{in: "", err: "name=v1,v2"},
		{in: "=1,2", err: "name=v1,v2"},
		{in: "X=", err: "no values"},
		{in: "X= ", err: "no values"},
		{in: "X=1,,2", err: "empty value"},
		{in: "X=1,", err: "empty value"},
		{in: "X=1:2", err: "not lo:hi:step"},
		{in: "X=1:2:3:4", err: "not lo:hi:step"},
		{in: "X=1:2:0", err: "step 0"},
		{in: "X=1:5:-1", err: "away from hi"},
		{in: "X=5:1:1", err: "away from hi"},
		{in: "X=a:5:1", err: "bad value"},
		{in: "X=0:1:nan", err: "bad value"},
		{in: "X=0:inf:1", err: "bad value"},
		{in: "X=0:1e9:0.001", err: "over"},
		{in: "X=0:1e19:1", err: "over"},
		{in: "X=-1e308:1e308:1", err: "over"},
	}
	for _, c := range cases {
		ax, err := ParseAxis(c.in)
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("ParseAxis(%q) error = %v, want substring %q", c.in, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseAxis(%q): %v", c.in, err)
			continue
		}
		if len(ax.Values) != len(c.want) {
			t.Errorf("ParseAxis(%q) = %v, want %v", c.in, ax.Values, c.want)
			continue
		}
		for i := range c.want {
			if ax.Values[i] != c.want[i] {
				t.Errorf("ParseAxis(%q)[%d] = %v, want %v", c.in, i, ax.Values[i], c.want[i])
			}
		}
	}
}

// TestRunCellsSpansAssembleToSweep is the shard contract at the library
// level: any partition of the cell grid into contiguous spans, each run
// with its own worker count, reassembles byte-identically to the
// in-process Sweep.
func TestRunCellsSpansAssembleToSweep(t *testing.T) {
	opt := gridOptions(3, 0) // 4 points x 3 reps = 12 cells
	want, err := Sweep(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	wantEnc := encode(t, want)

	partitions := [][]int{
		{0, 12},
		{0, 5, 12},
		{0, 3, 6, 9, 12},
		{0, 1, 11, 12},
	}
	for _, cuts := range partitions {
		var recs []CellRecord
		for i := 0; i+1 < len(cuts); i++ {
			shardOpt := opt
			shardOpt.Workers = 1 + i%2 // vary the per-shard pool
			part, err := RunCellsContext(context.Background(), shardOpt, cuts[i], cuts[i+1], nil)
			if err != nil {
				t.Fatalf("span %d:%d: %v", cuts[i], cuts[i+1], err)
			}
			recs = append(recs, part...)
		}
		got, err := AssembleSweep(opt, recs)
		if err != nil {
			t.Fatalf("partition %v: %v", cuts, err)
		}
		if encode(t, got) != wantEnc {
			t.Errorf("partition %v reassembles differently from Sweep", cuts)
		}
	}
}

// gatedBackend is the simulator with cells past k held until open is
// closed; each of those cells is reported on ran once it has run.
type gatedBackend struct {
	SimBackend
	base int64 // SweepOptions.BaseSeed: a cell's seed is base + cell
	k    int
	open chan struct{}
	ran  chan int
}

func (b gatedBackend) NewWorker(opt *SweepOptions) (BackendWorker, error) {
	w, err := b.SimBackend.NewWorker(opt)
	return gatedWorker{w, b}, err
}

type gatedWorker struct {
	BackendWorker
	b gatedBackend
}

func (w gatedWorker) RunCell(ctx context.Context, in CellInput) (CellOutcome, error) {
	cell := int(in.Seed - w.b.base)
	if cell <= w.b.k {
		return w.BackendWorker.RunCell(ctx, in)
	}
	select {
	case <-w.b.open:
	case <-ctx.Done():
		return CellOutcome{}, ctx.Err()
	}
	out, err := w.BackendWorker.RunCell(ctx, in)
	w.b.ran <- cell
	return out, err
}

// TestEmitErrorIsSticky: once emit fails on cell k, no worker may emit
// again — neither k a second time nor any later cell — even though
// other workers finish their in-flight cells after the failure. The
// failing emit returns only after another worker has run a later cell,
// so that worker is on its way to the emit cursor when it does.
func TestEmitErrorIsSticky(t *testing.T) {
	const k = 5
	opt := gridOptions(4, 4) // 16 cells over 4 workers
	gate := gatedBackend{base: opt.BaseSeed, k: k, open: make(chan struct{}), ran: make(chan int, opt.NumCells())}
	opt.Backend = gate
	var calls []int // emit is serialized by the streaming cursor's lock
	_, err := RunCellsContext(context.Background(), opt, 0, opt.NumCells(), func(rec CellRecord) error {
		calls = append(calls, rec.Cell)
		if rec.Cell < k {
			return nil
		}
		if len(calls) == k+1 {
			close(gate.open)
			<-gate.ran
		}
		return errors.New("sink closed")
	})
	if err == nil || !strings.Contains(err.Error(), "sink closed") {
		t.Fatalf("err = %v, want the emit failure", err)
	}
	want := []int{0, 1, 2, 3, 4, k}
	if fmt.Sprint(calls) != fmt.Sprint(want) {
		t.Fatalf("emit calls %v, want %v", calls, want)
	}
}

// TestCellCodecRoundTrip: records that cross the JSONL process boundary
// reassemble byte-identically, and the emit stream arrives in cell
// order.
func TestCellCodecRoundTrip(t *testing.T) {
	opt := gridOptions(2, 0) // 8 cells
	want, err := Sweep(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	cw, err := NewCellWriter(&buf, MetaOf(opt, "pipeline_cached"))
	if err != nil {
		t.Fatal(err)
	}
	emitted := 0
	if _, err := RunCellsContext(context.Background(), opt, 0, opt.NumCells(), func(rec CellRecord) error {
		if rec.Cell != emitted {
			t.Errorf("emit order: got cell %d, want %d", rec.Cell, emitted)
		}
		emitted++
		return cw.Write(rec)
	}); err != nil {
		t.Fatal(err)
	}
	if emitted != opt.NumCells() {
		t.Fatalf("emitted %d of %d cells", emitted, opt.NumCells())
	}

	cr, err := NewCellReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	meta := MetaOf(opt, "pipeline_cached")
	if got := cr.Meta(); !got.SameGrid(&meta) {
		t.Errorf("decoded meta %+v does not match grid", got)
	}
	// Every schedule-shaping option must participate in SameGrid.
	for name, mutate := range map[string]func(*SweepOptions){
		"seed":      func(o *SweepOptions) { o.BaseSeed++ },
		"reps":      func(o *SweepOptions) { o.Reps++ },
		"horizon":   func(o *SweepOptions) { o.Sim.Horizon++ },
		"maxStarts": func(o *SweepOptions) { o.Sim.MaxStarts = 7 },
		"axis":      func(o *SweepOptions) { o.Axes[0].Values[0]++ },
		"metrics":   func(o *SweepOptions) { o.Metrics = o.Metrics[:1] },
	} {
		drifted := opt
		drifted.Axes = append([]Axis(nil), opt.Axes...)
		drifted.Axes[0].Values = append([]float64(nil), opt.Axes[0].Values...)
		mutate(&drifted)
		dm := MetaOf(drifted, "pipeline_cached")
		if dm.SameGrid(&meta) {
			t.Errorf("SameGrid ignores a %s drift", name)
		}
	}
	var recs []CellRecord
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	got, err := AssembleSweep(opt, recs)
	if err != nil {
		t.Fatal(err)
	}
	if encode(t, got) != encode(t, want) {
		t.Error("codec round trip changed the assembled sweep")
	}
}

// TestCellStreamValidation: wrong formats and versions are rejected,
// truncated streams surface as incomplete grids.
func TestCellStreamValidation(t *testing.T) {
	if _, err := NewCellReader(strings.NewReader("")); err == nil {
		t.Error("empty stream accepted")
	}
	if _, err := NewCellReader(strings.NewReader(`{"format":"other","version":1}` + "\n")); err == nil ||
		!strings.Contains(err.Error(), "format") {
		t.Errorf("wrong format error = %v", err)
	}
	if _, err := NewCellReader(strings.NewReader(`{"format":"pnut-cells","version":99}` + "\n")); err == nil ||
		!strings.Contains(err.Error(), "version") {
		t.Errorf("future version error = %v", err)
	}

	opt := gridOptions(2, 1)
	recs, err := RunCellsContext(context.Background(), opt, 0, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AssembleSweep(opt, recs); err == nil || !strings.Contains(err.Error(), "missing cell") {
		t.Errorf("incomplete grid error = %v", err)
	}
	dup := append(append([]CellRecord(nil), recs...), recs[0])
	if _, err := AssembleSweep(opt, dup); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate cell error = %v", err)
	}
}

// TestSweepCancellation: cancelling the context stops the shared pool
// at the next cell boundary instead of running the grid to completion.
func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	opt := gridOptions(8, 1) // 32 cells on one worker
	ran := 0
	opt.Metrics = append(opt.Metrics, Metric{
		Name: "tripwire",
		Eval: func(*stats.Stats) (float64, error) {
			ran++
			cancel() // first completed cell pulls the plug
			return 0, nil
		},
	})
	_, err := Sweep(ctx, opt)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep error = %v, want context.Canceled", err)
	}
	if ran != 1 {
		t.Errorf("%d cells ran after cancellation, want 1", ran)
	}
}

// TestRunCancellation mirrors the sweep test for the replication driver.
func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	net := testNet(t)
	ran := 0
	_, err := Run(ctx, net, Options{
		Reps: 16, Workers: 1, BaseSeed: 5,
		Sim: sim.Options{Horizon: 500},
		Metrics: []Metric{{Name: "tripwire", Eval: func(*stats.Stats) (float64, error) {
			ran++
			cancel()
			return 0, nil
		}}},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}
	if ran != 1 {
		t.Errorf("%d replications ran after cancellation, want 1", ran)
	}
}

// TestAssembleSweepDoesNotMutateInput: assembly folds each point's
// replications into a *clone* of the first accumulator, so the caller's
// records survive — a coordinator may re-journal or re-assemble the
// same slice and get identical bytes, not polluted accumulators.
func TestAssembleSweepDoesNotMutateInput(t *testing.T) {
	opt := gridOptions(3, 0)
	recs, err := RunCellsContext(context.Background(), opt, 0, opt.NumCells(), nil)
	if err != nil {
		t.Fatal(err)
	}
	before := make([][]byte, len(recs))
	for i := range recs {
		if before[i], err = EncodeCell(recs[i]); err != nil {
			t.Fatal(err)
		}
	}

	first, err := AssembleSweep(opt, recs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		after, err := EncodeCell(recs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before[i], after) {
			t.Fatalf("assembly mutated input record for cell %d:\n before %s\n after  %s",
				recs[i].Cell, before[i], after)
		}
	}

	// Re-assembling the same records must therefore be byte-identical.
	second, err := AssembleSweep(opt, recs)
	if err != nil {
		t.Fatal(err)
	}
	if encode(t, second) != encode(t, first) {
		t.Error("second assembly of the same records differs from the first")
	}
}

// TestRunCellsBadSpan covers span validation.
func TestRunCellsBadSpan(t *testing.T) {
	opt := gridOptions(2, 1)
	for _, span := range [][2]int{{-1, 2}, {0, 9}, {3, 3}, {5, 2}} {
		if _, err := RunCellsContext(context.Background(), opt, span[0], span[1], nil); err == nil ||
			!strings.Contains(err.Error(), "span") {
			t.Errorf("span %v error = %v", span, err)
		}
	}
}

// panicBackend is the simulator with cell k's RunCell panicking, as a
// backend bug on an unforeseen input would.
type panicBackend struct {
	SimBackend
	base int64 // SweepOptions.BaseSeed: a cell's seed is base + cell
	k    int
}

func (b panicBackend) NewWorker(opt *SweepOptions) (BackendWorker, error) {
	w, err := b.SimBackend.NewWorker(opt)
	return panicWorker{w, b}, err
}

type panicWorker struct {
	BackendWorker
	b panicBackend
}

func (w panicWorker) RunCell(ctx context.Context, in CellInput) (CellOutcome, error) {
	if int(in.Seed-w.b.base) == w.b.k {
		panic("backend bug")
	}
	return w.BackendWorker.RunCell(ctx, in)
}

// TestCellPanicFailsOnlyTheSweep: a panicking cell fails the sweep with
// an error naming the cell and carrying the panic's stack, and the
// process survives to report it.
func TestCellPanicFailsOnlyTheSweep(t *testing.T) {
	const k = 5 // point 1, replication 1 of a 4-replication grid
	for _, workers := range []int{1, 4} {
		opt := gridOptions(4, workers)
		opt.Backend = panicBackend{base: opt.BaseSeed, k: k}
		_, err := Sweep(context.Background(), opt)
		if err == nil {
			t.Fatalf("workers=%d: sweep with a panicking cell succeeded", workers)
		}
		msg := err.Error()
		if !strings.Contains(msg, "point 1 (") || !strings.Contains(msg, "replication 1: panic: backend bug") ||
			!strings.Contains(msg, "panicWorker.RunCell") {
			t.Errorf("workers=%d: err = %v, want cell %d's panic with its stack", workers, err, k)
		}
	}
}

// TestRunCellAllocatesNothing: the panic guard costs no allocation on
// a cell that returns normally.
func TestRunCellAllocatesNothing(t *testing.T) {
	do := func(worker, cell int) error { return nil }
	if n := testing.AllocsPerRun(100, func() { _ = runCell(do, 0, 1) }); n != 0 {
		t.Errorf("runCell allocates %v times per cell", n)
	}
}
