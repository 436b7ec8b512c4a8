package experiment

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

func testNet(t testing.TB) *petri.Net {
	t.Helper()
	net, err := pipeline.Processor(pipeline.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// replications is the zero-axis sweep these tests drive: reps
// replications of net, replication i seeded baseSeed+i.
func replications(net *petri.Net, reps, workers int, baseSeed int64, horizon petri.Time, metrics ...Metric) SweepOptions {
	return SweepOptions{
		Reps:     reps,
		Workers:  workers,
		BaseSeed: baseSeed,
		Sim:      sim.Options{Horizon: horizon},
		Metrics:  metrics,
		Build:    func(Point) (*petri.Net, error) { return net, nil },
	}
}

func run(t *testing.T, net *petri.Net, workers int) *SweepResult {
	t.Helper()
	r, err := Sweep(context.Background(), replications(net, 12, workers, 400, 2_000,
		Throughput("Issue"), Utilization("Bus_busy")))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestDeterministicAcrossWorkerCounts is the core contract: the same
// base seed must give bit-for-bit identical merged statistics and
// metric summaries whether the replications run serially or spread
// over any number of workers.
func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	net := testNet(t)
	ref := run(t, net, 1).Points[0]
	refReport := reportOf(t, ref.Pooled)
	for _, workers := range []int{2, 3, 8} {
		pt := run(t, net, workers).Points[0]
		if !reflect.DeepEqual(pt.Summaries, ref.Summaries) {
			t.Errorf("workers=%d: summaries differ from serial run:\n%v\nvs\n%v",
				workers, pt.Summaries, ref.Summaries)
		}
		if !reflect.DeepEqual(pt.Values, ref.Values) {
			t.Errorf("workers=%d: per-replication values differ from serial run", workers)
		}
		if reportOf(t, pt.Pooled) != refReport {
			t.Errorf("workers=%d: pooled statistics report not byte-identical to serial run", workers)
		}
	}
}

// TestPooledAggregates: pooled statistics must total the per-run event
// counts, and the pooled duration must be the sum of run lengths.
func TestPooledAggregates(t *testing.T) {
	net := testNet(t)
	r := run(t, net, 4)
	pt := r.Points[0]
	var ends int64
	var dur petri.Time
	for _, res := range pt.Runs {
		ends += res.Ends
		dur += res.Clock
	}
	if pt.Pooled.TotalEnds() != ends {
		t.Errorf("pooled ends %d != summed run ends %d", pt.Pooled.TotalEnds(), ends)
	}
	if r.Events != ends {
		t.Errorf("SweepResult.Events %d != summed run ends %d", r.Events, ends)
	}
	if pt.Pooled.Duration() != dur {
		t.Errorf("pooled duration %d != summed run clocks %d", pt.Pooled.Duration(), dur)
	}
	if pt.Pooled.Runs() != len(pt.Runs) {
		t.Errorf("pooled run count %d != %d", pt.Pooled.Runs(), len(pt.Runs))
	}
}

// TestObserverPerReplication: SimBackend.Observe is called once per
// cell with that cell's index, its observer sees the cell's whole trace
// through Final, a nil return is ignored, and none of it changes a
// result byte at any worker count.
func TestObserverPerReplication(t *testing.T) {
	for _, workers := range []int{1, 4} {
		plain, err := Sweep(context.Background(), gridOptions(3, workers))
		if err != nil {
			t.Fatal(err)
		}

		opt := gridOptions(3, workers)
		cells := opt.NumCells()
		calls := make([]atomic.Int64, cells)
		// Each cell's counters are written only by the goroutine running
		// that cell and read after Sweep returns.
		records := make([]int, cells)
		finals := make([]int, cells)
		afterFinal := make([]bool, cells)
		opt.Backend = SimBackend{Observe: func(cell int) trace.Observer {
			calls[cell].Add(1)
			if cell%2 == 1 {
				return nil
			}
			return trace.ObserverFunc(func(rec *trace.Record) error {
				afterFinal[cell] = afterFinal[cell] || finals[cell] > 0
				records[cell]++
				if rec.Kind == trace.Final {
					finals[cell]++
				}
				return nil
			})
		}}
		observed, err := Sweep(context.Background(), opt)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := csvOf(t, observed), csvOf(t, plain); got != want {
			t.Errorf("workers=%d: Observe changed the sweep CSV:\n%s\nvs\n%s", workers, got, want)
		}

		for cell := 0; cell < cells; cell++ {
			if n := calls[cell].Load(); n != 1 {
				t.Errorf("workers=%d: Observe(%d) called %d times, want 1", workers, cell, n)
			}
			if cell%2 == 1 {
				continue
			}
			if finals[cell] != 1 || afterFinal[cell] {
				t.Errorf("workers=%d: cell %d saw %d Final records (records after Final: %v), want exactly one, last",
					workers, cell, finals[cell], afterFinal[cell])
			}
			if want := directRecords(t, opt, cell); records[cell] != want {
				t.Errorf("workers=%d: cell %d observer saw %d records, a direct run emits %d", workers, cell, records[cell], want)
			}
		}
	}
}

func csvOf(t *testing.T, r *SweepResult) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// directRecords counts the trace records of a plain sim.Run of one cell
// of opt's grid: the cell's point's net at seed BaseSeed+cell.
func directRecords(t *testing.T, opt SweepOptions, cell int) int {
	t.Helper()
	net, err := opt.Build(opt.point(cell / opt.RepStride()))
	if err != nil {
		t.Fatal(err)
	}
	so := opt.Sim
	so.Seed = opt.BaseSeed + int64(cell)
	n := 0
	count := trace.ObserverFunc(func(*trace.Record) error { n++; return nil })
	if _, err := sim.Run(context.Background(), net, count, so); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestErrorPropagation: a failing replication aborts the experiment
// and surfaces the error; malformed options are rejected.
func TestErrorPropagation(t *testing.T) {
	net := testNet(t)
	sentinel := errors.New("boom")
	opt := replications(net, 8, 4, 0, 500)
	opt.Backend = SimBackend{Observe: func(cell int) trace.Observer {
		return trace.ObserverFunc(func(rec *trace.Record) error {
			if cell == 5 {
				return sentinel
			}
			return nil
		})
	}}
	if _, err := Sweep(context.Background(), opt); !errors.Is(err, sentinel) {
		t.Errorf("error %v does not wrap the observer failure", err)
	}

	if _, err := Sweep(context.Background(), replications(net, 0, 0, 0, 1)); err == nil {
		t.Error("Reps=0 must be rejected")
	}
	if _, err := Sweep(context.Background(), replications(net, 2, 0, 0, 0)); err == nil {
		t.Error("missing Horizon/MaxStarts must be rejected")
	}
}

// TestSingleRep: the driver degrades to a plain run.
func TestSingleRep(t *testing.T) {
	net := testNet(t)
	r, err := Sweep(context.Background(), replications(net, 1, 0, 99, 5_000, Throughput("Issue")))
	if err != nil {
		t.Fatal(err)
	}
	direct := stats.New(trace.HeaderOf(net))
	if _, err := sim.Run(context.Background(), net, direct, sim.Options{Horizon: 5_000, Seed: 99}); err != nil {
		t.Fatal(err)
	}
	want, _ := direct.Throughput("Issue")
	if got := r.Points[0].Values[0][0]; got != want {
		t.Errorf("single replication throughput %v != direct run %v", got, want)
	}
	if r.Workers != 1 {
		t.Errorf("worker pool not clamped to rep count: %d", r.Workers)
	}
}

// TestUnknownMetric: metric errors surface with the replication index.
func TestUnknownMetric(t *testing.T) {
	net := testNet(t)
	_, err := Sweep(context.Background(), replications(net, 3, 0, 0, 100, Throughput("no_such_transition")))
	if err == nil || !strings.Contains(err.Error(), "no_such_transition") {
		t.Errorf("unknown metric error not surfaced: %v", err)
	}
}

// coinNet flips a fair coin once per tick.
func coinNet(t *testing.T) *petri.Net {
	t.Helper()
	b := petri.NewBuilder("coin")
	b.Place("p", 1)
	b.Place("heads_won", 0)
	b.Place("tails_won", 0)
	b.Trans("flip_heads").In("p").Out("heads_won").Freq(1).EnablingConst(1)
	b.Trans("flip_tails").In("p").Out("tails_won").Freq(1).EnablingConst(1)
	b.Trans("again_h").In("heads_won").Out("p")
	b.Trans("again_t").In("tails_won").Out("p")
	return b.MustBuild()
}

// TestReplicateCoinFlip: replications of a fair coin summarize to a
// heads rate near 0.5 with a well-formed confidence interval.
func TestReplicateCoinFlip(t *testing.T) {
	r, err := Sweep(context.Background(), replications(coinNet(t), 10, 0, 1, 2_000, Throughput("flip_heads")))
	if err != nil {
		t.Fatal(err)
	}
	sum := r.Points[0].Summaries[0]
	if math.Abs(sum.Mean-0.5) > 0.05 {
		t.Errorf("mean = %v", sum)
	}
	if sum.N != 10 || sum.StdDev < 0 || sum.CI95 <= 0 {
		t.Errorf("summary malformed: %+v", sum)
	}
	if sum.Min > sum.Mean || sum.Max < sum.Mean {
		t.Errorf("range does not bracket mean: %+v", sum)
	}
	if !strings.Contains(sum.String(), "95% CI") {
		t.Errorf("String: %s", sum)
	}
}

// TestReplicateDistinctSeeds: with only 500 flips, replications differ;
// nonzero spread proves the seeds were distinct.
func TestReplicateDistinctSeeds(t *testing.T) {
	r, err := Sweep(context.Background(), replications(coinNet(t), 5, 0, 7, 500, Throughput("flip_heads")))
	if err != nil {
		t.Fatal(err)
	}
	if sum := r.Points[0].Summaries[0]; sum.StdDev == 0 {
		t.Error("replications identical; seeds not varied")
	}
}
