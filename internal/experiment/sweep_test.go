package experiment

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

// cacheBuild is the standard sweep hook used across these tests: axis
// names resolve to pipeline/cache parameters on cloned param structs.
func cacheBuild(pt Point) (*petri.Net, error) {
	return pipeline.SweepProcessor(true, pt.Names, pt.Values)
}

func gridOptions(reps, workers int) SweepOptions {
	return SweepOptions{
		Axes: []Axis{
			{Name: "DHitRatio", Values: []float64{0.5, 0.9}},
			{Name: "MemoryCycles", Values: []float64{1, 5}},
		},
		Reps:     reps,
		Workers:  workers,
		BaseSeed: 1988,
		Sim:      sim.Options{Horizon: 1_500},
		Metrics:  []Metric{Throughput("Issue"), Utilization("Bus_busy")},
		Build:    cacheBuild,
	}
}

// encode renders every deterministic artifact of a sweep — the CSV
// (full-precision floats) and each point's pooled Figure-5 report — so
// byte-comparison covers both the summaries and the merged statistics.
func encode(t *testing.T, r *SweepResult) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteTable(&b); err != nil {
		t.Fatal(err)
	}
	for _, pt := range r.Points {
		if err := pt.Pooled.Report(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestSweepSinglePointMatchesRun pins the seed-sharding contract: a
// sweep of zero axes, built through the Build hook, is one unnamed point
// whose cell seeds are BaseSeed+rep, exactly the schedule of a plain
// serial replication run, so the pooled statistics must be
// byte-identical to that run's.
func TestSweepSinglePointMatchesRun(t *testing.T) {
	net := testNet(t)
	simOpt := sim.Options{Horizon: 2_000}
	metrics := []Metric{Throughput("Issue")}

	sw, err := Sweep(context.Background(), SweepOptions{
		Reps:     5,
		BaseSeed: 400,
		Sim:      simOpt,
		Metrics:  metrics,
		Build:    func(Point) (*petri.Net, error) { return net, nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Points) != 1 {
		t.Fatalf("zero-axis sweep has %d points", len(sw.Points))
	}
	if n := len(sw.Points[0].Point.Names); n != 0 {
		t.Errorf("zero-axis point has %d axis names", n)
	}
	run, err := replicateSerial(net, simOpt, 400, 5, metrics)
	if err != nil {
		t.Fatal(err)
	}

	if reportOf(t, sw.Points[0].Pooled) != reportOf(t, run.Pooled) {
		t.Error("zero-axis sweep and serial run produce different pooled statistics")
	}
	if sw.Points[0].Summaries[0] != run.Summaries[0] {
		t.Errorf("summaries differ: sweep %+v vs run %+v", sw.Points[0].Summaries[0], run.Summaries[0])
	}
}

// TestSweepDeterministicAcrossWorkerCounts extends the PR-1 guarantee
// from replications to whole grids: a sweep's merged results are
// byte-identical for workers = 1, 2 and GOMAXPROCS.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, reps := range []int{1, 3} {
		var want string
		for i, w := range workerCounts {
			r, err := Sweep(context.Background(), gridOptions(reps, w))
			if err != nil {
				t.Fatalf("reps=%d workers=%d: %v", reps, w, err)
			}
			if r.Reps != reps {
				t.Fatalf("reps=%d: result echoes Reps=%d", reps, r.Reps)
			}
			got := encode(t, r)
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Errorf("reps=%d: workers=%d changed the results vs workers=%d", reps, w, workerCounts[0])
			}
		}
	}
}

// TestSweepReplicationEdgeCases covers the replication-count edges: 0
// is a clean error, 1 runs and summarizes with N=1 (no CI).
func TestSweepReplicationEdgeCases(t *testing.T) {
	opt := gridOptions(0, 1)
	if _, err := Sweep(context.Background(), opt); err == nil || !strings.Contains(err.Error(), "Reps") {
		t.Errorf("Reps=0 error = %v, want a Reps complaint", err)
	}

	opt.Reps = 1
	r, err := Sweep(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, pt := range r.Points {
		for _, s := range pt.Summaries {
			if s.N != 1 {
				t.Errorf("point %s: summary N = %d, want 1", pt.Point.String(), s.N)
			}
			if s.CI95 != 0 || s.StdDev != 0 {
				t.Errorf("point %s: single replication has CI %g sd %g", pt.Point.String(), s.CI95, s.StdDev)
			}
			if s.Mean != s.Min || s.Mean != s.Max {
				t.Errorf("point %s: single-rep mean/min/max disagree: %+v", pt.Point.String(), s)
			}
		}
	}
}

// TestSweepValidation covers the remaining option errors.
func TestSweepValidation(t *testing.T) {
	base := gridOptions(2, 1)

	noBuild := base
	noBuild.Build = nil
	if _, err := Sweep(context.Background(), noBuild); err == nil || !strings.Contains(err.Error(), "Build") {
		t.Errorf("nil Build error = %v", err)
	}

	emptyAxis := base
	emptyAxis.Axes = []Axis{{Name: "DHitRatio"}}
	if _, err := Sweep(context.Background(), emptyAxis); err == nil || !strings.Contains(err.Error(), "no values") {
		t.Errorf("empty axis error = %v", err)
	}

	dupAxis := base
	dupAxis.Axes = []Axis{
		{Name: "DHitRatio", Values: []float64{0.5}},
		{Name: "DHitRatio", Values: []float64{0.9}},
	}
	if _, err := Sweep(context.Background(), dupAxis); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate axis error = %v", err)
	}

	unnamed := base
	unnamed.Axes = []Axis{{Values: []float64{1}}}
	if _, err := Sweep(context.Background(), unnamed); err == nil || !strings.Contains(err.Error(), "name") {
		t.Errorf("unnamed axis error = %v", err)
	}

	badParam := base
	badParam.Axes = []Axis{{Name: "NoSuchParam", Values: []float64{1}}}
	if _, err := Sweep(context.Background(), badParam); err == nil || !strings.Contains(err.Error(), "NoSuchParam") {
		t.Errorf("unknown parameter error = %v", err)
	}
}

// TestSweepGridExpansion pins the row-major point order (last axis
// fastest) that both the seed schedule and the output tables rely on.
func TestSweepGridExpansion(t *testing.T) {
	opt := SweepOptions{
		Axes: []Axis{
			{Name: "a", Values: []float64{1, 2}},
			{Name: "b", Values: []float64{10, 20, 30}},
		},
		Reps: 1,
	}
	want := [][2]float64{{1, 10}, {1, 20}, {1, 30}, {2, 10}, {2, 20}, {2, 30}}
	if got := opt.NumPoints(); got != len(want) {
		t.Fatalf("numPoints = %d, want %d", got, len(want))
	}
	for i, w := range want {
		pt := opt.point(i)
		if pt.Index != i || pt.Values[0] != w[0] || pt.Values[1] != w[1] {
			t.Errorf("point %d = %+v, want values %v", i, pt, w)
		}
		if v, ok := pt.Value("b"); !ok || v != w[1] {
			t.Errorf("point %d Value(b) = %g, %v", i, v, ok)
		}
	}
}

// TestParseAxis covers the CLI axis syntax.
func TestParseAxis(t *testing.T) {
	ax, err := ParseAxis("MemoryCycles=1, 5,12")
	if err != nil {
		t.Fatal(err)
	}
	if ax.Name != "MemoryCycles" || len(ax.Values) != 3 || ax.Values[2] != 12 {
		t.Errorf("parsed axis %+v", ax)
	}
	for _, bad := range []string{"", "NoValues", "=1,2", "X=1,huh"} {
		if _, err := ParseAxis(bad); err == nil {
			t.Errorf("ParseAxis(%q) accepted", bad)
		}
	}
}

// TestSweepBuildErrorNamesThePoint checks error context: a Build
// failure reports which grid point could not be constructed.
func TestSweepBuildErrorNamesThePoint(t *testing.T) {
	opt := gridOptions(2, 1)
	opt.Axes = []Axis{{Name: "DHitRatio", Values: []float64{0.5, 7}}} // 7 is out of range
	_, err := Sweep(context.Background(), opt)
	if err == nil || !strings.Contains(err.Error(), "DHitRatio=7") {
		t.Errorf("build error does not name the point: %v", err)
	}
}
