package experiment

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/modelgen"
	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/trace"
)

// TestSimBackendExplicitMatchesDefault: naming the sim backend
// explicitly is the identity refactor — every artifact of the sweep is
// byte-identical to leaving Backend nil.
func TestSimBackendExplicitMatchesDefault(t *testing.T) {
	base := gridOptions(3, 2)
	want, err := Sweep(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	explicit := gridOptions(3, 2)
	explicit.Backend = SimBackend{}
	got, err := Sweep(context.Background(), explicit)
	if err != nil {
		t.Fatal(err)
	}
	if encode(t, got) != encode(t, want) {
		t.Error("explicit SimBackend changed the sweep output")
	}
}

// deepBuild parameterizes the DeepPipeline family: the axis values
// select the stage and token counts, so different grid points explore
// genuinely different state spaces.
func deepBuild(pt Point) (*petri.Net, error) {
	stages, tokens := 4, 2
	for i, n := range pt.Names {
		switch n {
		case "Stages":
			stages = int(pt.Values[i])
		case "Tokens":
			tokens = int(pt.Values[i])
		}
	}
	return modelgen.DeepPipeline(stages, tokens, 1), nil
}

func reachOptions(workers int) SweepOptions {
	return SweepOptions{
		Axes:     []Axis{{Name: "Stages", Values: []float64{3, 5}}, {Name: "Tokens", Values: []float64{2, 3}}},
		Reps:     1,
		Workers:  workers,
		BaseSeed: 1,
		Metrics: []Metric{
			NamedMetric("states"),
			NamedMetric("deadlocks"),
			NamedMetric("truncated"),
		},
		Build:   deepBuild,
		Backend: ReachBackend{},
	}
}

// TestReachBackendDeterministicAndCorrect: the reach engine's grid
// tables are byte-identical across worker counts and repeated runs,
// and each point's values equal a direct reach.Build of that net.
func TestReachBackendDeterministicAndCorrect(t *testing.T) {
	var prev string
	for _, workers := range []int{1, 2, 4} {
		r, err := Sweep(context.Background(), reachOptions(workers))
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := r.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if prev != "" && b.String() != prev {
			t.Errorf("reach sweep differs at %d workers:\n%s\nvs\n%s", workers, b.String(), prev)
		}
		prev = b.String()

		for _, pt := range r.Points {
			net, err := deepBuild(pt.Point)
			if err != nil {
				t.Fatal(err)
			}
			g, err := reach.Build(context.Background(), net, reach.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := pt.Values[0][0], float64(len(g.Nodes)); got != want {
				t.Errorf("%s: states = %g, want %g", pt.Point.String(), got, want)
			}
			if got, want := pt.Values[1][0], float64(len(g.Deadlocks())); got != want {
				t.Errorf("%s: deadlocks = %g, want %g", pt.Point.String(), got, want)
			}
		}
	}
}

// TestReachBackendMetricNames: bound and ctl metrics resolve by name;
// misspellings and malformed formulas fail Validate, before any pool
// or planner starts.
func TestReachBackendMetricNames(t *testing.T) {
	opt := reachOptions(1)
	opt.Metrics = []Metric{NamedMetric("bound(s0)"), NamedMetric("ctl(EF(deadlock))")}
	if err := opt.Validate(); err != nil {
		t.Fatalf("valid reach metrics rejected: %v", err)
	}
	for _, bad := range []string{"throughput(x)", "frobnicate", "ctl(AG !!)", "bound"} {
		opt.Metrics = []Metric{NamedMetric(bad)}
		if err := opt.Validate(); err == nil {
			t.Errorf("metric %q validated", bad)
		}
	}
}

// TestDeterministicBackendShape: deterministic engines reject
// replication and adaptive stopping at validation time.
func TestDeterministicBackendShape(t *testing.T) {
	opt := reachOptions(1)
	opt.Reps = 3
	if err := opt.Validate(); err == nil || !strings.Contains(err.Error(), "Reps must be 1") {
		t.Errorf("Reps=3 under reach: err = %v", err)
	}
	opt = reachOptions(1)
	opt.Adaptive = &AdaptiveOptions{Metric: "states", RelCI: 0.05, MinReps: 2, MaxReps: 4, Batch: 2}
	if err := opt.Validate(); err == nil || !strings.Contains(err.Error(), "adaptive") {
		t.Errorf("adaptive under reach: err = %v", err)
	}
}

// TestAnalyticBackendMatchesEvaluate: the analytic engine's cell
// values are exactly analytic.Evaluate's.
func TestAnalyticBackendMatchesEvaluate(t *testing.T) {
	// A two-state cycle with constant delays: the timed graph is exact
	// and tiny.
	ring := func() *petri.Net {
		b := petri.NewBuilder("const_ring")
		b.Place("pa", 1)
		b.Place("pb", 0)
		b.Trans("ab").In("pa").Out("pb").FiringConst(2)
		b.Trans("ba").In("pb").Out("pa").FiringConst(3)
		return b.MustBuild()
	}
	build := func(Point) (*petri.Net, error) { return ring(), nil }
	opt := SweepOptions{
		Reps:    1,
		Metrics: []Metric{NamedMetric("throughput(ab)"), NamedMetric("utilization(pa)")},
		Build:   build,
		Backend: AnalyticBackend{},
	}
	r, err := Sweep(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := analytic.Evaluate(context.Background(), ring(), reach.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := res.Throughput("ab")
	if err != nil {
		t.Fatal(err)
	}
	util, err := res.Utilization("pa")
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Points[0].Values[0][0]; got != tr {
		t.Errorf("throughput(ab) = %g, want %g", got, tr)
	}
	if got := r.Points[0].Values[1][0]; got != util {
		t.Errorf("utilization(pa) = %g, want %g", got, util)
	}

	opt.Metrics = []Metric{NamedMetric("states")}
	if err := opt.Validate(); err == nil {
		t.Error("reach metric validated under the analytic engine")
	}
}

// TestCellMetaEngine: the stream meta pins the engine and its
// state-space controls, and SameGrid keeps engines apart while
// treating an absent engine as sim (pre-v3 streams).
func TestCellMetaEngine(t *testing.T) {
	simMeta := MetaOf(gridOptions(1, 1), "m")
	if simMeta.Engine != "" || simMeta.MaxStates != 0 {
		t.Errorf("sim meta carries engine pins: %+v", simMeta)
	}
	legacy := simMeta
	legacy.Engine = "sim" // a hypothetical explicit tag must equal the absent one
	if !simMeta.SameGrid(&legacy) {
		t.Error("absent engine != explicit sim")
	}
	renamed := simMeta
	renamed.Format, renamed.Net, renamed.Version = "", "other", 1
	if !simMeta.SameGrid(&renamed) {
		t.Error("informational fields entered the grid identity")
	}
	// The identity is the encoded grid, as the server's cache key hashes
	// it: an axis value -0 is not 0 there, so it is not 0 here either.
	negZero := simMeta
	negZero.Axes = []Axis{{Name: "DHitRatio", Values: []float64{math.Copysign(0, -1), 0.9}}, simMeta.Axes[1]}
	zero := negZero
	zero.Axes = []Axis{{Name: "DHitRatio", Values: []float64{0, 0.9}}, simMeta.Axes[1]}
	if negZero.SameGrid(&zero) {
		t.Error("axis value -0 compared equal to 0")
	}

	opt := reachOptions(1)
	opt.Backend = ReachBackend{Opt: reach.Options{MaxStates: 777, BoundCap: 33, Shards: 4}}
	m := MetaOf(opt, "m")
	if m.Engine != "reach" || m.MaxStates != 777 || m.BoundCap != 33 {
		t.Errorf("reach meta pins wrong: %+v", m)
	}
	other := m
	other.MaxStates = 778
	if m.SameGrid(&other) {
		t.Error("differing MaxStates compared equal")
	}
	if m.SameGrid(&simMeta) {
		t.Error("reach grid compared equal to sim grid")
	}

	// Graphs are bit-identical for every spill budget by contract, so
	// the budget is not part of the grid: mem and spill metas compare
	// equal and encode to the same bytes, which is what the server's
	// cache key hashes (package cache imports this one, so the key
	// itself is checked by the server tests).
	opt.Backend = ReachBackend{Opt: reach.Options{MaxStates: 777, BoundCap: 33, SpillBudget: 1024}}
	spillMeta := MetaOf(opt, "m")
	if !m.SameGrid(&spillMeta) {
		t.Error("mem and spill store metas compared unequal")
	}
	line, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if spillLine, err := json.Marshal(spillMeta); err != nil || !bytes.Equal(line, spillLine) {
		t.Errorf("mem and spill store metas encode differently:\n%s\n%s", line, spillLine)
	}

	// A journal line written while the store was pinned still decodes,
	// and equals a fresh mem meta.
	pinned := strings.TrimSuffix(string(line), "}") + `,"store":"spill"}`
	r, err := NewCellReader(strings.NewReader(pinned + "\n"))
	if err != nil {
		t.Fatalf("meta with a store pin does not decode: %v\n%s", err, pinned)
	}
	if old := r.Meta(); !reflect.DeepEqual(old, m) || !old.SameGrid(&m) {
		t.Errorf("pinned meta decodes to %+v, want %+v", old, m)
	}
}

// TestReachBackendThroughCellStream: reach cells survive the encode/
// decode/assemble path the dist coordinator uses.
func TestReachBackendThroughCellStream(t *testing.T) {
	opt := reachOptions(1)
	recs, err := RunCellsContext(context.Background(), opt, 0, opt.NumCells(), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		line, err := EncodeCell(recs[i])
		if err != nil {
			t.Fatal(err)
		}
		dec, err := DecodeCell(line)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = dec
	}
	r, err := AssembleSweep(opt, recs)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Sweep(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	if err := r.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := direct.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("round-tripped reach cells differ from the direct sweep")
	}
	// Deterministic cells carry zero-valued run summaries by contract.
	for _, rec := range recs {
		if rec.Run.Clock != 0 || rec.Run.Starts != 0 || rec.Run.Ends != 0 || rec.Run.Final != nil {
			t.Errorf("cell %d carries a non-zero run summary: %+v", rec.Cell, rec.Run)
		}
	}
}

// truncateSpill empties every spill temp file in dir, as a disk that
// lost them would: later reads of spilled rows then fail.
func truncateSpill(t *testing.T, dir string) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) == 0 {
		t.Fatalf("no spill file in %s (%v)", dir, err)
	}
	for _, e := range ents {
		if err := os.Truncate(filepath.Join(dir, e.Name()), 0); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSpillReadErrorFailsCell: when the spill file of a built graph
// cannot be read back, a reach cell and an analytic reader fail with
// the store's error instead of reporting a figure computed from zeroed
// markings or a scan cut short.
func TestSpillReadErrorFailsCell(t *testing.T) {
	ctx := context.Background()
	net := modelgen.DeepPipeline(8, 5, 1)

	dir := t.TempDir()
	g, err := reach.Build(ctx, net, reach.Options{SpillBudget: 1, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if g.SpilledBytes() == 0 {
		t.Fatalf("%d-state graph never spilled", len(g.Nodes))
	}
	opt := reachOptions(1)
	opt.Metrics = []Metric{NamedMetric("states"), NamedMetric("bound(s0)")}
	bw, err := opt.Backend.NewWorker(&opt)
	if err != nil {
		t.Fatal(err)
	}
	truncateSpill(t, dir)
	if out, err := bw.(*reachWorker).cell(g, trace.Header{}); err == nil {
		t.Errorf("reach cell over an unreadable spill file = %v, want an error", out.Values)
	}

	timed, err := pipeline.SweepProcessor(false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	r, err := analytic.Evaluate(ctx, timed, reach.Options{SpillBudget: 1, SpillDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	truncateSpill(t, dir)
	if u, err := r.Utilization("Bus_busy"); err == nil {
		t.Errorf("Utilization over an unreadable spill file = %g, want an error", u)
	}
}
