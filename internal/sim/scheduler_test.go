package sim_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/modelgen"
	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/ptl"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// irandJoinNet is a two-input join whose predicate draws from the run's
// random source. A producer's end refreshes the join once per output
// arc, so the join's predicate is evaluated twice per production: an
// engine that evaluated it once would shift every later draw. The
// join's action sets x, which gate's predicate reads; gate shares no
// place with the join, so only the re-check of predicated transitions
// after an action can re-enable it. The net lives here rather than
// under testdata, which other tests glob.
const irandJoinNet = `net irand_join
var x 0
place a
place b
place src init 1
place g init 1
trans produce
  in src
  out a, b
  firing 1
trans join
  in a, b
  out src
  firing 2
  pred { irand(0, 1) == 1 }
  action { x = irand(0, 2) }
trans spin
  in a
  out a
  firing 1
trans gate
  in g
  out g
  firing 1
  pred { x == 1 }
`

// cacheNet builds the cache-processor net the cache sweeps run, at the
// given data-cache hit ratio.
func cacheNet(t testing.TB, dhit float64) *petri.Net {
	t.Helper()
	c := pipeline.DefaultCacheParams()
	c.DHitRatio = dhit
	net, err := pipeline.CacheProcessor(pipeline.DefaultParams(), c)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// propertyNets collects the nets the indexed scheduler must reproduce
// the linear-scan oracle on: every checked-in .pn fixture, freshly
// generated members of both modelgen families (two of them span more
// than one 64-transition word of the ripe bitset), the cache processor
// at two hit ratios (free-choice conflicts, so the ripe set often holds
// several transitions) and the irand-predicate join.
func propertyNets(t testing.TB) map[string]*petri.Net {
	t.Helper()
	nets := make(map[string]*petri.Net)
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.pn"))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		net, err := ptl.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		nets[filepath.Base(p)] = net
	}
	if len(nets) == 0 {
		t.Fatal("no .pn fixtures found under testdata")
	}
	for gseed := int64(1); gseed <= 4; gseed++ {
		net := modelgen.DeepPipeline(40, 5, gseed)
		nets[net.Name] = net
		net = modelgen.ForkJoin(5, 4, gseed)
		nets[net.Name] = net
	}
	for _, net := range []*petri.Net{modelgen.DeepPipeline(100, 7, 1), modelgen.DeepPipeline(256, 32, 1)} {
		nets[net.Name] = net
	}
	for _, dhit := range []float64{0.3, 0.9} {
		nets[fmt.Sprintf("cache_processor_dhit%g", dhit)] = cacheNet(t, dhit)
	}
	net, err := ptl.Parse(irandJoinNet)
	if err != nil {
		t.Fatal(err)
	}
	nets[net.Name] = net
	return nets
}

// textTrace runs the run function and returns the run's text-encoded
// trace bytes together with its statistics snapshot and summary.
func textTrace(t *testing.T, net *petri.Net, run func(trace.Observer, sim.Options) (sim.Result, error), opt sim.Options) ([]byte, stats.Snapshot, sim.Result) {
	t.Helper()
	b, snap, res, err := runTrace(t, net, run, opt)
	if err != nil {
		t.Fatal(err)
	}
	return b, snap, res
}

// runTrace is textTrace that returns the run's error instead of failing
// on it; the trace and statistics then cover the records emitted before
// the error.
func runTrace(t *testing.T, net *petri.Net, run func(trace.Observer, sim.Options) (sim.Result, error), opt sim.Options) ([]byte, stats.Snapshot, sim.Result, error) {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewFormatWriter(&buf, trace.HeaderOf(net), trace.FormatText, false)
	if err != nil {
		t.Fatal(err)
	}
	acc := stats.New(trace.HeaderOf(net))
	res, runErr := run(trace.Tee{w, acc}, opt)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), acc.Snapshot(), res, runErr
}

// TestSchedulerMatchesOracle is the determinism contract of the indexed
// event scheduler: for every fixture and generated net, and several
// seeds each, the new engine and the frozen linear-scan oracle produce
// byte-identical text traces, equal statistics snapshots and equal run
// summaries.
func TestSchedulerMatchesOracle(t *testing.T) {
	for name, net := range propertyNets(t) {
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 5; seed++ {
				opt := sim.Options{Seed: seed, Horizon: 2_000}
				eng := sim.NewEngine(net)
				gotTrace, gotStats, gotRes := textTrace(t, net, func(obs trace.Observer, o sim.Options) (sim.Result, error) {
					return eng.Run(context.Background(), obs, o)
				}, opt)
				oracle := sim.NewOracle(net)
				wantTrace, wantStats, wantRes := textTrace(t, net, oracle.Run, opt)
				if !bytes.Equal(gotTrace, wantTrace) {
					t.Fatalf("seed %d: traces differ\n--- indexed (%d bytes)\n%s\n--- oracle (%d bytes)\n%s",
						seed, len(gotTrace), firstDiffContext(gotTrace, wantTrace), len(wantTrace), firstDiffContext(wantTrace, gotTrace))
				}
				if !reflect.DeepEqual(gotStats, wantStats) {
					t.Fatalf("seed %d: statistics snapshots differ", seed)
				}
				if !reflect.DeepEqual(gotRes, wantRes) {
					t.Fatalf("seed %d: run summaries differ:\nindexed %+v\noracle  %+v", seed, gotRes, wantRes)
				}
			}
		})
	}
}

// firstDiffContext returns a few lines around the first difference, so
// a failure shows where the traces fork rather than two full dumps.
func firstDiffContext(a, b []byte) string {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	i := 0
	for i < n && a[i] == b[i] {
		i++
	}
	lo := i - 200
	if lo < 0 {
		lo = 0
	}
	hi := i + 200
	if hi > len(a) {
		hi = len(a)
	}
	return fmt.Sprintf("...%s...", a[lo:hi])
}

// TestEngineReuseMatchesOracle pins that a reused engine (the
// experiment drivers' hot path) replays the oracle exactly on its
// second and later runs too — reset must leave no scheduler state
// behind.
func TestEngineReuseMatchesOracle(t *testing.T) {
	net := modelgen.DeepPipeline(24, 4, 9)
	eng := sim.NewEngine(net)
	for seed := int64(7); seed >= 3; seed-- { // descending: reuse out of order
		opt := sim.Options{Seed: seed, Horizon: 1_500}
		gotTrace, _, _ := textTrace(t, net, func(obs trace.Observer, o sim.Options) (sim.Result, error) {
			return eng.Run(context.Background(), obs, o)
		}, opt)
		oracle := sim.NewOracle(net)
		wantTrace, _, _ := textTrace(t, net, oracle.Run, opt)
		if !bytes.Equal(gotTrace, wantTrace) {
			t.Fatalf("seed %d (reused engine): traces differ", seed)
		}
	}
}

// TestRunAllocsPerEvent is the firing-path allocation budget: zero
// allocations per event. Per-run setup (environment, result marking)
// does allocate, so the test measures the same warm engine over a short
// and a 16x longer horizon — any per-event allocation would make the
// long run's figure strictly larger.
//
// The fork-join case joins 32 branches at once, so one end refreshes
// a wide fan-in. The cache-processor case is the exact path of a cache
// sweep cell: the sweep's net observed by a stats.Stats accumulator.
func TestRunAllocsPerEvent(t *testing.T) {
	for _, tc := range []struct {
		name string
		net  *petri.Net
		obs  func(*petri.Net) trace.Observer
	}{
		{"deep_pipeline", modelgen.DeepPipeline(48, 6, 2), func(*petri.Net) trace.Observer { return nil }},
		{"fork_join", modelgen.ForkJoin(32, 8, 1), func(*petri.Net) trace.Observer { return nil }},
		{"cache_processor_stats", cacheNet(t, pipeline.DefaultCacheParams().DHitRatio), func(net *petri.Net) trace.Observer {
			return stats.New(trace.HeaderOf(net))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := sim.NewEngine(tc.net)
			runWith := func(h petri.Time) func() {
				opt := sim.Options{Seed: 1, Horizon: h}
				obs := tc.obs(tc.net)
				return func() {
					if _, err := eng.Run(context.Background(), obs, opt); err != nil {
						t.Fatal(err)
					}
				}
			}
			short, long := petri.Time(500), petri.Time(8_000)
			// Warm the engine (and observer) so buffers are grown.
			runWith(long)()
			allocsShort := testing.AllocsPerRun(10, runWith(short))
			allocsLong := testing.AllocsPerRun(10, runWith(long))
			if allocsLong > allocsShort {
				t.Fatalf("per-event allocations on the firing path: short horizon %v allocs/run, long horizon %v allocs/run (want equal: 0 allocs/event)",
					allocsShort, allocsLong)
			}
		})
	}
}

// TestRunContextCancel covers both context paths: an already-cancelled
// context fails before any event, and a context cancelled mid-run stops
// the run at a later batch boundary with the context's error.
func TestRunContextCancel(t *testing.T) {
	net := modelgen.DeepPipeline(32, 4, 5)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.Run(ctx, net, nil, sim.Options{Seed: 1, Horizon: 100}); err != context.Canceled {
		t.Fatalf("pre-cancelled context: got %v, want context.Canceled", err)
	}

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	events := 0
	obs := trace.ObserverFunc(func(rec *trace.Record) error {
		if events++; events == 100 {
			cancel()
		}
		return nil
	})
	// A horizon far beyond the cancellation point: the run must stop on
	// the context well before simulating all of it.
	_, err := sim.Run(ctx, net, obs, sim.Options{Seed: 1, Horizon: 50_000_000})
	if err != context.Canceled {
		t.Fatalf("mid-run cancel: got %v, want context.Canceled", err)
	}
}

// benchNet is the benchmark workload: a deep pipeline large enough that
// the ripe set and event queue stay busy.
func benchNet() *petri.Net { return modelgen.DeepPipeline(256, 32, 1) }

const benchHorizon = 20_000

// reportEvents reports events (completed firings) per second and
// nanoseconds per event over the benchmark's elapsed time.
func reportEvents(b *testing.B, events int64) {
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

// BenchmarkEngineIndexed measures the indexed-scheduler engine on the
// deep pipeline (compare with BenchmarkEngineLinearOracle for the
// rearchitecture's speedup) and on the cache processor, the net every
// cache sweep cell runs.
func BenchmarkEngineIndexed(b *testing.B) {
	for _, bc := range []struct {
		name    string
		net     *petri.Net
		horizon petri.Time
	}{
		{"deep_pipeline", benchNet(), benchHorizon},
		{"cache_processor", cacheNet(b, pipeline.DefaultCacheParams().DHitRatio), 10_000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			eng := sim.NewEngine(bc.net)
			opt := sim.Options{Seed: 1, Horizon: bc.horizon}
			var events int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.Run(context.Background(), nil, opt)
				if err != nil {
					b.Fatal(err)
				}
				events += res.Ends
			}
			reportEvents(b, events)
		})
	}
}

// BenchmarkEngineLinearOracle measures the frozen linear-scan engine on
// the same workload.
func BenchmarkEngineLinearOracle(b *testing.B) {
	net := benchNet()
	opt := sim.Options{Seed: 1, Horizon: benchHorizon}
	var events int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.NewOracle(net).Run(nil, opt)
		if err != nil {
			b.Fatal(err)
		}
		events += res.Ends
	}
	reportEvents(b, events)
}
