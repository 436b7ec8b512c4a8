package experiment

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// adaptiveGridOptions is the mixed-variance reference grid for the
// adaptive tests: at horizon 2000 with a 5% relative-CI target, the
// cache points converge at visibly different replication counts (some
// near MinReps, some far above), which is exactly the situation the
// sequential-stopping rule exists for.
func adaptiveGridOptions(workers int) SweepOptions {
	return SweepOptions{
		Axes: []Axis{{Name: "DHitRatio", Values: []float64{0, 0.5, 0.9, 1}}},
		Adaptive: &AdaptiveOptions{
			Metric:  "throughput(Issue)",
			RelCI:   0.05,
			MinReps: 3,
			MaxReps: 32,
			Batch:   2,
		},
		Workers:  workers,
		BaseSeed: 7,
		Sim:      sim.Options{Horizon: 2_000},
		Metrics:  []Metric{Throughput("Issue"), Utilization("Bus_busy")},
		Build:    cacheBuild,
	}
}

// TestAdaptiveStoppingCriterion is the stopping-rule property: every
// point either satisfies CI95 <= RelCI * |mean| of the target metric
// over its replications, or ran to MaxReps; counts stay within
// [MinReps, MaxReps]; and the bookkeeping (PointResult.Reps, Values
// lengths, TotalReps) is consistent.
func TestAdaptiveStoppingCriterion(t *testing.T) {
	opt := adaptiveGridOptions(0)
	a := opt.Adaptive
	r, err := Sweep(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, pt := range r.Points {
		n := pt.Reps
		if n < a.MinReps || n > a.MaxReps {
			t.Errorf("point %s: %d reps outside [%d, %d]", pt.Point.String(), n, a.MinReps, a.MaxReps)
		}
		for m := range pt.Values {
			if len(pt.Values[m]) != n || pt.Summaries[m].N != n {
				t.Errorf("point %s: metric %d has %d values / N=%d, want %d",
					pt.Point.String(), m, len(pt.Values[m]), pt.Summaries[m].N, n)
			}
		}
		if len(pt.Runs) != n {
			t.Errorf("point %s: %d run summaries, want %d", pt.Point.String(), len(pt.Runs), n)
		}
		s := stats.Summarize(pt.Values[0]) // metric 0 is the stopping metric
		if n < a.MaxReps && s.CI95 > a.RelCI*math.Abs(s.Mean) {
			t.Errorf("point %s: stopped at %d reps with CI95/|mean| = %g > %g",
				pt.Point.String(), n, s.CI95/math.Abs(s.Mean), a.RelCI)
		}
		total += n
	}
	if r.TotalReps != total {
		t.Errorf("TotalReps = %d, want %d", r.TotalReps, total)
	}
	if r.Adaptive == nil || *r.Adaptive != *a {
		t.Errorf("result does not echo the adaptive options: %+v", r.Adaptive)
	}
}

// TestAdaptiveSavesReplications: on the mixed-variance grid, adaptive
// stopping must use strictly fewer total replications than a fixed
// sweep at MaxReps — and the counts must actually differ across points
// (otherwise the grid does not exercise the mechanism).
func TestAdaptiveSavesReplications(t *testing.T) {
	opt := adaptiveGridOptions(0)
	r, err := Sweep(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if fixed := len(r.Points) * opt.Adaptive.MaxReps; r.TotalReps >= fixed {
		t.Errorf("adaptive used %d replications, fixed MaxReps would use %d", r.TotalReps, fixed)
	}
	counts := make(map[int]bool)
	for _, pt := range r.Points {
		counts[pt.Reps] = true
	}
	if len(counts) < 2 {
		t.Errorf("all points stopped at the same count %v; grid is not mixed-variance", counts)
	}
}

// TestAdaptiveDeterministicAcrossWorkerCounts extends the sweep
// determinism guarantee to adaptive stopping: the round decisions are
// taken only from replication-order summaries, so workers 1, 2 and
// GOMAXPROCS produce byte-identical tables, CSVs and pooled reports.
func TestAdaptiveDeterministicAcrossWorkerCounts(t *testing.T) {
	var want string
	for i, w := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		r, err := Sweep(context.Background(), adaptiveGridOptions(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		got := encode(t, r)
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("workers=%d changed the adaptive results", w)
		}
	}
}

// TestAdaptiveMinEqualsMaxMatchesFixed: with MinReps == MaxReps the
// stopping rule never fires, the seed layout equals the fixed sweep's
// (stride == Reps), and per-point results must match a fixed sweep at
// that count exactly.
func TestAdaptiveMinEqualsMaxMatchesFixed(t *testing.T) {
	fixed := gridOptions(4, 0)
	adaptive := fixed
	adaptive.Reps = 0
	adaptive.Adaptive = &AdaptiveOptions{
		Metric: "throughput(Issue)", RelCI: 1e-12, MinReps: 4, MaxReps: 4, Batch: 1,
	}
	fr, err := Sweep(context.Background(), fixed)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := Sweep(context.Background(), adaptive)
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Points) != len(ar.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(fr.Points), len(ar.Points))
	}
	for p := range fr.Points {
		if ar.Points[p].Reps != 4 {
			t.Errorf("point %d: adaptive ran %d reps, want 4", p, ar.Points[p].Reps)
		}
		for m := range fr.Points[p].Summaries {
			if fr.Points[p].Summaries[m] != ar.Points[p].Summaries[m] {
				t.Errorf("point %d metric %d: summaries differ: %+v vs %+v",
					p, m, fr.Points[p].Summaries[m], ar.Points[p].Summaries[m])
			}
		}
		var fb, ab strings.Builder
		if err := fr.Points[p].Pooled.Report(&fb); err != nil {
			t.Fatal(err)
		}
		if err := ar.Points[p].Pooled.Report(&ab); err != nil {
			t.Fatal(err)
		}
		if fb.String() != ab.String() {
			t.Errorf("point %d: pooled reports differ", p)
		}
	}
}

// TestAdaptiveValidation covers the adaptive option errors.
func TestAdaptiveValidation(t *testing.T) {
	base := adaptiveGridOptions(1)
	cases := map[string]struct {
		mutate func(*AdaptiveOptions)
		want   string
	}{
		"min below 2":    {func(a *AdaptiveOptions) { a.MinReps = 1 }, "MinReps"},
		"max below min":  {func(a *AdaptiveOptions) { a.MaxReps = 2 }, "MaxReps"},
		"batch zero":     {func(a *AdaptiveOptions) { a.Batch = 0 }, "Batch"},
		"relci zero":     {func(a *AdaptiveOptions) { a.RelCI = 0 }, "RelCI"},
		"relci negative": {func(a *AdaptiveOptions) { a.RelCI = -0.1 }, "RelCI"},
		"relci inf":      {func(a *AdaptiveOptions) { a.RelCI = math.Inf(1) }, "RelCI"},
		"relci nan":      {func(a *AdaptiveOptions) { a.RelCI = math.NaN() }, "RelCI"},
		"unknown metric": {func(a *AdaptiveOptions) { a.Metric = "nope" }, "metric"},
		"empty metric":   {func(a *AdaptiveOptions) { a.Metric = "" }, "metric"},
	}
	for name, c := range cases {
		opt := base
		a := *base.Adaptive
		c.mutate(&a)
		opt.Adaptive = &a
		if _, err := Sweep(context.Background(), opt); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want substring %q", name, err, c.want)
		}
	}
	// An adaptive sweep ignores Reps entirely — even an invalid one.
	ok := base
	ok.Reps = 0
	if err := ok.Validate(); err != nil {
		t.Errorf("adaptive sweep with Reps=0 rejected: %v", err)
	}
}

// TestRunCellSpansMatchesWholeGrid: cells run via scattered spans are
// byte-identical to the same cells from a whole-grid run — cell
// identity (seed, point, rep) depends only on the index, never on
// which spans ran together or with how many workers.
func TestRunCellSpansMatchesWholeGrid(t *testing.T) {
	opt := gridOptions(3, 0) // 4 points x 3 reps = 12 cells
	whole, err := RunCellsContext(context.Background(), opt, 0, opt.NumCells(), nil)
	if err != nil {
		t.Fatal(err)
	}
	wholeEnc := make(map[int]string, len(whole))
	for i := range whole {
		b, err := EncodeCell(whole[i])
		if err != nil {
			t.Fatal(err)
		}
		wholeEnc[whole[i].Cell] = string(b)
	}

	spans := []CellSpan{{Lo: 1, Hi: 3}, {Lo: 4, Hi: 5}, {Lo: 7, Hi: 11}}
	for _, workers := range []int{1, 3} {
		sopt := opt
		sopt.Workers = workers
		recs, err := RunCellSpansContext(context.Background(), sopt, spans, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 7 {
			t.Fatalf("workers=%d: got %d records, want 7", workers, len(recs))
		}
		next := 0
		for i := range recs {
			b, err := EncodeCell(recs[i])
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != wholeEnc[recs[i].Cell] {
				t.Errorf("workers=%d: cell %d differs from whole-grid run", workers, recs[i].Cell)
			}
			if recs[i].Cell < next {
				t.Errorf("workers=%d: records out of cell order at %d", workers, recs[i].Cell)
			}
			next = recs[i].Cell
		}
	}

	// Bad span lists are rejected.
	for _, bad := range [][]CellSpan{
		{{Lo: -1, Hi: 2}},
		{{Lo: 0, Hi: 99}},
		{{Lo: 3, Hi: 3}},
		{{Lo: 0, Hi: 4}, {Lo: 2, Hi: 6}}, // overlapping
		{{Lo: 4, Hi: 6}, {Lo: 0, Hi: 2}}, // descending
	} {
		if _, err := RunCellSpansContext(context.Background(), opt, bad, nil); err == nil {
			t.Errorf("span list %v accepted", bad)
		}
	}
	// An empty list is a no-op, not an error.
	if recs, err := RunCellSpansContext(context.Background(), opt, nil, nil); err != nil || len(recs) != 0 {
		t.Errorf("empty span list: recs=%v err=%v", recs, err)
	}
}

// TestAdaptiveControllerReplay: feeding a completed record set back
// through a fresh controller replays the same rounds without any
// pending dispatch — the property journal resume relies on.
func TestAdaptiveControllerReplay(t *testing.T) {
	opt := adaptiveGridOptions(0)
	recs, err := runAdaptiveCells(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	byCell := make(map[int]*CellRecord, len(recs))
	for i := range recs {
		byCell[recs[i].Cell] = &recs[i]
	}

	ctrl, err := NewAdaptiveController(&opt)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	err = AdaptiveRounds(ctrl,
		func(cell int) bool { return byCell[cell] != nil },
		func(cell int) float64 { return byCell[cell].Values[ctrl.MetricIndex()] },
		func(spans []CellSpan) error {
			rounds++
			t.Errorf("replay dispatched spans %v", spans)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 0 {
		t.Errorf("replay ran %d dispatch rounds, want 0", rounds)
	}
	if got := ctrl.TargetCells(); got != len(recs) {
		t.Errorf("replayed target set has %d cells, records have %d", got, len(recs))
	}
}
