// Package repro's benchmark harness regenerates every figure and table
// of the paper's evaluation (Section 4). One benchmark per artifact:
//
//	BenchmarkFig1Prefetch          — Figure 1 subnet simulation
//	BenchmarkFig2Decoder           — Figure 2 subnet simulation
//	BenchmarkFig3Execution         — Figure 3 subnet simulation
//	BenchmarkFig4Interpreted       — Figure 4 interpreted net
//	BenchmarkFig5Statistics        — the Figure 5 statistics report (headline)
//	BenchmarkFig6Animation         — Figure 6 animation frames
//	BenchmarkFig7Tracer            — Figure 7 Tracertool timing analysis
//	BenchmarkSec44Queries          — the five Section 4.4 queries of trace_pipe
//	BenchmarkSeqFromReader         — columnar trace into a query state sequence
//	BenchmarkCacheSweep            — Section 3 cache extension
//	BenchmarkMemorySpeedSweep      — the introduction's memory-speed claim
//	BenchmarkAdaptiveSweep         — CI-targeted stopping vs BenchmarkSweepFixedMax
//	BenchmarkBaselineSequential    — non-pipelined baseline
//	BenchmarkAblationTimeEncoding  — firing-time vs enabling-time encoding
//	BenchmarkAblationInterpreted   — explicit vs table-driven nets
//	BenchmarkReachability          — reachability analyzer on the pipeline net
//
// Headline metrics are attached with b.ReportMetric (instructions per
// cycle, bus utilization, ...) so `go test -bench=. -benchmem` prints
// the paper's numbers next to the timing. EXPERIMENTS.md records the
// paper-vs-measured comparison.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/analytic"
	"repro/internal/anim"
	"repro/internal/dist"
	"repro/internal/experiment"
	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/query"
	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/sweepcli"
	"repro/internal/trace"
	"repro/internal/tracer"
)

const paperCycles = 10_000

// The helpers below are shared by every benchmark AND by the
// test-mode correctness gates (TestBenchmarkShapesHold), so they take
// testing.TB — one implementation, no bench/test duplication, and no
// silently dropped errors: a metric that cannot be evaluated fails the
// run instead of reporting a stale zero.

func mustProcessor(tb testing.TB, p pipeline.Params) *petri.Net {
	tb.Helper()
	net, err := pipeline.Processor(p)
	if err != nil {
		tb.Fatal(err)
	}
	return net
}

// runStats simulates a net for n cycles and returns the stats.
func runStats(tb testing.TB, net *petri.Net, cycles int64, seed int64) *stats.Stats {
	tb.Helper()
	s := stats.New(trace.HeaderOf(net))
	if _, err := sim.Run(context.Background(), net, s, sim.Options{Horizon: cycles, Seed: seed}); err != nil {
		tb.Fatal(err)
	}
	return s
}

// mustThroughput and mustUtilization read a metric off a run's stats,
// failing loudly on unknown names.
func mustThroughput(tb testing.TB, s *stats.Stats, transition string) float64 {
	tb.Helper()
	v, err := s.Throughput(transition)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

func mustUtilization(tb testing.TB, s *stats.Stats, place string) float64 {
	tb.Helper()
	v, err := s.Utilization(place)
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// BenchmarkFig1Prefetch regenerates the Figure 1 experiment: the
// prefetch subnet alone. Reported: prefetch bus usage (the subnet
// saturates the bus at 2 words / 5 cycles).
func BenchmarkFig1Prefetch(b *testing.B) {
	net, err := pipeline.Prefetch(pipeline.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	var s *stats.Stats
	for i := 0; i < b.N; i++ {
		s = runStats(b, net, paperCycles, 1)
	}
	b.ReportMetric(mustUtilization(b, s, "pre_fetching"), "prefetch_util")
	b.ReportMetric(mustThroughput(b, s, "Decode"), "decode_rate")
}

// BenchmarkFig2Decoder regenerates the Figure 2 experiment: decode,
// address calculation, operand fetch. Reported: issue rate of stage 2 in
// isolation.
func BenchmarkFig2Decoder(b *testing.B) {
	net, err := pipeline.Decoder(pipeline.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	var s *stats.Stats
	for i := 0; i < b.N; i++ {
		s = runStats(b, net, paperCycles, 1)
	}
	b.ReportMetric(mustThroughput(b, s, "Issue"), "issue_rate")
}

// BenchmarkFig3Execution regenerates the Figure 3 experiment: the
// execution unit with the 1-2-5-10-50 service distribution and result
// stores. Reported: execution throughput in isolation.
func BenchmarkFig3Execution(b *testing.B) {
	net, err := pipeline.Execution(pipeline.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	var s *stats.Stats
	for i := 0; i < b.N; i++ {
		s = runStats(b, net, paperCycles, 1)
	}
	b.ReportMetric(mustThroughput(b, s, "Issue"), "issue_rate")
}

// BenchmarkFig4Interpreted regenerates the Figure 4 experiment: the
// table-driven interpreted pipeline.
func BenchmarkFig4Interpreted(b *testing.B) {
	net, err := pipeline.InterpretedProcessor(pipeline.DefaultParams(), pipeline.DefaultInstructionSet())
	if err != nil {
		b.Fatal(err)
	}
	var s *stats.Stats
	for i := 0; i < b.N; i++ {
		s = runStats(b, net, paperCycles, 11)
	}
	b.ReportMetric(mustThroughput(b, s, "Issue"), "issue_rate")
}

// BenchmarkFig5Statistics is the headline: the full Section 2 model for
// 10 000 cycles plus the statistics report of Figure 5. Reported
// metrics: instruction rate (paper: 0.1238) and bus utilization
// (paper: 0.6582).
func BenchmarkFig5Statistics(b *testing.B) {
	net := mustProcessor(b, pipeline.DefaultParams())
	var s *stats.Stats
	for i := 0; i < b.N; i++ {
		s = runStats(b, net, paperCycles, 1988)
		if err := s.Report(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(mustThroughput(b, s, "Issue"), "instr_per_cycle")
	b.ReportMetric(mustUtilization(b, s, "Bus_busy"), "bus_util")
}

// BenchmarkFig6Animation regenerates the Figure 6 experiment: animating
// the pipeline model with token flow over arcs.
func BenchmarkFig6Animation(b *testing.B) {
	net := mustProcessor(b, pipeline.DefaultParams())
	frames := 0
	for i := 0; i < b.N; i++ {
		a := anim.New(net, io.Discard, anim.Options{FlowSteps: 3, HideIdle: true})
		if _, err := sim.Run(context.Background(), net, a, sim.Options{Horizon: 100, Seed: 1}); err != nil {
			b.Fatal(err)
		}
		frames = a.Frames()
	}
	b.ReportMetric(float64(frames), "frames")
}

// BenchmarkFig7Tracer regenerates the Figure 7 experiment: the standard
// probe set rendered over a 400-cycle window with two cursors.
func BenchmarkFig7Tracer(b *testing.B) {
	net := mustProcessor(b, pipeline.DefaultParams())
	qb := query.NewBuilder(trace.HeaderOf(net))
	if _, err := sim.Run(context.Background(), net, qb, sim.Options{Horizon: paperCycles, Seed: 1988}); err != nil {
		b.Fatal(err)
	}
	seq := qb.Seq()
	var out string
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := tracer.Figure7(seq)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := tr.MarkWhen("O", "Bus_busy > 0", 0); err != nil {
			b.Fatal(err)
		}
		if _, err := tr.MarkWhen("X", "storing > 0", 0); err != nil {
			b.Fatal(err)
		}
		out = tr.Render(tracer.RenderOptions{From: 0, To: 400, Width: 96})
	}
	b.ReportMetric(float64(strings.Count(out, "\n")), "plot_rows")
}

// queryCycles is the trace length of the query benchmarks: that of a
// perfbench trace_pipe unit.
const queryCycles = 40_000

// BenchmarkSec44Queries runs the five Section 4.4 queries of a perfbench
// trace_pipe unit, parsed once, over a 40 000-cycle trace.
func BenchmarkSec44Queries(b *testing.B) {
	net := mustProcessor(b, pipeline.DefaultParams())
	qb := query.NewBuilder(trace.HeaderOf(net))
	if _, err := sim.Run(context.Background(), net, qb, sim.Options{Horizon: queryCycles, Seed: 1988}); err != nil {
		b.Fatal(err)
	}
	seq := qb.Seq()
	var queries []*query.Query
	for _, src := range []string{
		"forall s in S [ Bus_busy(s) + Bus_free(s) <= 1 ]",
		"forall s in S [ inev(s, Bus_busy(C) + Bus_free(C) == 1) ]",
		"exists s in (S - {#0}) [ Empty_I_buffers(s) == 6 ]",
		"exists s in S [ exec_type_5(s) > 0 ]",
		fmt.Sprintf("forall s in {s2 in S | Bus_busy(s2) && time(s2) < %d} [ inev(s, Bus_free(C), true) ]", queryCycles-50),
	} {
		q, err := query.Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	holds := 0
	for i := 0; i < b.N; i++ {
		holds = 0
		for _, q := range queries {
			res, err := q.Eval(seq)
			if err != nil {
				b.Fatal(err)
			}
			if res.Holds {
				holds++
			}
		}
	}
	b.ReportMetric(float64(holds), "queries_holding")
	b.ReportMetric(float64(seq.Len()), "states")
}

// BenchmarkSeqFromReader decodes an in-memory columnar trace of a
// trace_pipe unit into a query state sequence.
func BenchmarkSeqFromReader(b *testing.B) {
	net := mustProcessor(b, pipeline.DefaultParams())
	var col bytes.Buffer
	w := trace.NewColWriter(&col, trace.HeaderOf(net), false)
	if _, err := sim.Run(context.Background(), net, w, sim.Options{Horizon: queryCycles, Seed: 1988}); err != nil {
		b.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	states := 0
	for i := 0; i < b.N; i++ {
		seq, err := query.SeqFromReader(trace.NewColReader(bytes.NewReader(col.Bytes())))
		if err != nil {
			b.Fatal(err)
		}
		states += seq.Len()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(states), "allocs/state")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(states), "B/state")
	b.ReportMetric(float64(states)/float64(b.N), "states")
}

// cacheBuild is the sweep Build hook over the cached pipeline: axis
// names are pipeline/cache parameter names.
func cacheBuild(pt experiment.Point) (*petri.Net, error) {
	return pipeline.SweepProcessor(true, pt.Names, pt.Values)
}

// mustSweep runs one sweep through the sharded driver, failing the
// benchmark on any error.
func mustSweep(tb testing.TB, opt experiment.SweepOptions) *experiment.SweepResult {
	tb.Helper()
	r, err := experiment.Sweep(context.Background(), opt)
	if err != nil {
		tb.Fatal(err)
	}
	return r
}

// BenchmarkCacheSweep regenerates the Section 3 cache study through the
// sweep driver: data-cache hit ratio from 0 to 1 against instruction
// rate, one grid point per ratio.
func BenchmarkCacheSweep(b *testing.B) {
	opt := experiment.SweepOptions{
		Axes:     []experiment.Axis{{Name: "DHitRatio", Values: []float64{0, 0.5, 0.9, 1}}},
		Reps:     2,
		BaseSeed: 13,
		Sim:      sim.Options{Horizon: paperCycles},
		Metrics:  []experiment.Metric{experiment.Throughput("Issue")},
		Build:    cacheBuild,
	}
	var r *experiment.SweepResult
	for i := 0; i < b.N; i++ {
		r = mustSweep(b, opt)
	}
	b.ReportMetric(r.Points[len(r.Points)-1].Summaries[0].Mean, "ipc_at_hit1")
}

// BenchmarkMemorySpeedSweep regenerates the introduction's claim
// through the sweep driver: memory speed has a strong impact on
// processor performance. Reported: the throughput ratio between
// 1-cycle and 12-cycle memory.
func BenchmarkMemorySpeedSweep(b *testing.B) {
	opt := experiment.SweepOptions{
		Axes:     []experiment.Axis{{Name: "MemoryCycles", Values: []float64{1, 12}}},
		Reps:     2,
		BaseSeed: 4,
		Sim:      sim.Options{Horizon: paperCycles},
		Metrics:  []experiment.Metric{experiment.Throughput("Issue")},
		Build: func(pt experiment.Point) (*petri.Net, error) {
			return pipeline.SweepProcessor(false, pt.Names, pt.Values)
		},
	}
	var r *experiment.SweepResult
	for i := 0; i < b.N; i++ {
		r = mustSweep(b, opt)
	}
	fast, slow := r.Points[0].Summaries[0].Mean, r.Points[1].Summaries[0].Mean
	if slow > 0 {
		b.ReportMetric(fast/slow, "speedup_fast_vs_slow_mem")
	}
}

// sweepBench runs the reference 4-point x 4-replication cache grid (16
// cells) through the sweep driver and reports completed events per
// second and the CPU milliseconds per cell.
func sweepBench(b *testing.B, workers int) {
	opt := experiment.SweepOptions{
		Axes: []experiment.Axis{
			{Name: "DHitRatio", Values: []float64{0.5, 0.9}},
			{Name: "MemoryCycles", Values: []float64{1, 5}},
		},
		Reps:     4,
		Workers:  workers,
		BaseSeed: 1988,
		Sim:      sim.Options{Horizon: paperCycles},
		Metrics:  []experiment.Metric{experiment.Throughput("Issue")},
		Build:    cacheBuild,
	}
	var events int64
	var elapsed float64
	cpu := cpuPerCell(b, opt.NumCells())
	for i := 0; i < b.N; i++ {
		r := mustSweep(b, opt)
		events = r.Events
		elapsed = r.Elapsed.Seconds()
	}
	cpu()
	b.ReportMetric(float64(events)/elapsed, "events/s")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
}

// cpuPerCell starts a CPU meter (see processCPU); the returned func
// reports cpu-ms/cell, the CPU spent since over b.N runs of cells
// cells each, workers' CPU included.
func cpuPerCell(b *testing.B, cells int) func() {
	start, ok := processCPU()
	return func() {
		if end, _ := processCPU(); ok {
			b.ReportMetric(float64(end-start)/1e6/float64(b.N*cells), "cpu-ms/cell")
		}
	}
}

// gridBenchConfig is the reference 16-cell grid of sweepBench as a CLI
// config, so the distributed benchmarks launch workers with exactly the
// same sweep shape.
func gridBenchConfig() sweepcli.Config {
	return sweepcli.Config{
		Model:       "cache",
		RunFlags:    sweepcli.RunFlags{Horizon: paperCycles, Seed: 1988},
		Reps:        4,
		Axes:        sweepcli.Repeated{"DHitRatio=0.5,0.9", "MemoryCycles=1,5"},
		MetricFlags: sweepcli.MetricFlags{Throughputs: sweepcli.Repeated{"Issue"}},
	}
}

// gridBench runs the reference grid through the distributed coordinator
// and reports completed events per second and cpu-ms/cell, like
// sweepBench.
func gridBench(b *testing.B, shards int, runner dist.Runner) {
	cfg := gridBenchConfig()
	opt, _, err := cfg.Options()
	if err != nil {
		b.Fatal(err)
	}
	var events int64
	var elapsed float64
	b.ResetTimer()
	cpu := cpuPerCell(b, opt.NumCells())
	for i := 0; i < b.N; i++ {
		r, err := dist.Execute(context.Background(), opt, dist.Options{Shards: shards, Runner: runner})
		if err != nil {
			b.Fatal(err)
		}
		events = r.Events
		elapsed = r.Elapsed.Seconds()
	}
	cpu()
	b.ReportMetric(float64(events)/elapsed, "events/s")
	b.ReportMetric(float64(runtime.GOMAXPROCS(0)), "cores")
}

// BenchmarkGridLocal isolates the cell-record codec: the same 16 cells
// as BenchmarkSweepParallel, but every cell round-trips through the
// JSONL encoding. Compare ns/op against BenchmarkSweepParallel for the
// pure serialization overhead.
func BenchmarkGridLocal(b *testing.B) {
	cfg := gridBenchConfig()
	opt, _, err := cfg.Options()
	if err != nil {
		b.Fatal(err)
	}
	gridBench(b, 2, dist.LocalRunner(opt))
}

// BenchmarkGridDistributed runs the same grid across 2 real worker
// processes (pnut-sweep -spec - -emit cells, the job spec on stdin),
// quantifying the full per-process overhead — spawn, job decode and
// resolve, pipe, JSONL round-trip — against BenchmarkSweepParallel's
// in-process pool. Its cpu-ms/cell counts the workers' CPU.
func BenchmarkGridDistributed(b *testing.B) {
	cfg := gridBenchConfig()
	opt, name, err := cfg.Options()
	if err != nil {
		b.Fatal(err)
	}
	bin := filepath.Join(b.TempDir(), "pnut-sweep")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/pnut-sweep").CombinedOutput(); err != nil {
		b.Fatalf("building worker: %v\n%s", err, out)
	}
	spec, _, err := cfg.Spec()
	if err != nil {
		b.Fatal(err)
	}
	job, err := json.Marshal(spec)
	if err != nil {
		b.Fatal(err)
	}
	meta := experiment.MetaOf(opt, name)
	runner, err := dist.NewExecRunner([]string{bin}, job, &meta, nil)
	if err != nil {
		b.Fatal(err)
	}
	gridBench(b, 2, runner)
}

// adaptiveBenchOptions is a mixed-variance cache grid under the
// CI-targeted stopping rule: at this horizon and 5% relative-precision
// target the points converge at visibly different replication counts,
// so adaptive stopping pays off.
func adaptiveBenchOptions() experiment.SweepOptions {
	return experiment.SweepOptions{
		Axes: []experiment.Axis{{Name: "DHitRatio", Values: []float64{0, 0.5, 0.9, 1}}},
		Adaptive: &experiment.AdaptiveOptions{
			Metric:  "throughput(Issue)",
			RelCI:   0.05,
			MinReps: 3,
			MaxReps: 32,
			Batch:   2,
		},
		BaseSeed: 7,
		Sim:      sim.Options{Horizon: 2_000},
		Metrics:  []experiment.Metric{experiment.Throughput("Issue")},
		Build:    cacheBuild,
	}
}

// BenchmarkAdaptiveSweep runs the mixed-variance grid with adaptive
// replication. Compare total_reps (and ns/op) against
// BenchmarkSweepFixedMax, which buys the same worst-case precision by
// running every point at MaxReps — the adaptive run reaches the
// precision target on a fraction of the replications.
func BenchmarkAdaptiveSweep(b *testing.B) {
	opt := adaptiveBenchOptions()
	var r *experiment.SweepResult
	for i := 0; i < b.N; i++ {
		r = mustSweep(b, opt)
	}
	b.ReportMetric(float64(r.TotalReps), "total_reps")
	b.ReportMetric(float64(len(r.Points)*opt.Adaptive.MaxReps), "fixed_reps")
}

// BenchmarkSweepFixedMax is BenchmarkAdaptiveSweep's fixed-count
// baseline: the same grid, seeds and horizon, but every point runs
// MaxReps replications regardless of variance.
func BenchmarkSweepFixedMax(b *testing.B) {
	opt := adaptiveBenchOptions()
	opt.Reps = opt.Adaptive.MaxReps
	opt.Adaptive = nil
	var r *experiment.SweepResult
	for i := 0; i < b.N; i++ {
		r = mustSweep(b, opt)
	}
	b.ReportMetric(float64(r.TotalReps), "total_reps")
}

// BenchmarkSweepSerial is the baseline: all 16 grid cells on a single
// worker.
func BenchmarkSweepSerial(b *testing.B) { sweepBench(b, 1) }

// BenchmarkSweepParallel fans the same 16 cells out across GOMAXPROCS
// workers. Identical results (same base seed, deterministic per-cell
// seeds), wall-clock divided by the core count: compare ns/op against
// BenchmarkSweepSerial.
func BenchmarkSweepParallel(b *testing.B) { sweepBench(b, 0) }

// BenchmarkBaselineSequential compares the pipelined processor against
// the non-pipelined baseline. Reported: the pipeline speedup.
func BenchmarkBaselineSequential(b *testing.B) {
	p := pipeline.DefaultParams()
	pipe := mustProcessor(b, p)
	seqNet, err := pipeline.SequentialProcessor(p)
	if err != nil {
		b.Fatal(err)
	}
	var speedup float64
	for i := 0; i < b.N; i++ {
		sp := runStats(b, pipe, paperCycles, 9)
		ss := runStats(b, seqNet, paperCycles, 9)
		tp := mustThroughput(b, sp, "Issue")
		ts := mustThroughput(b, ss, "Issue")
		if ts > 0 {
			speedup = tp / ts
		}
	}
	b.ReportMetric(speedup, "pipeline_speedup")
}

// BenchmarkAblationTimeEncoding quantifies the paper's remark that
// firing times can be simulated with enabling times: same event timing,
// different place statistics (the in-flight tokens become visible) and
// a larger net. Reported: the transition count growth and the absolute
// throughput difference (should be ~0).
func BenchmarkAblationTimeEncoding(b *testing.B) {
	net := mustProcessor(b, pipeline.DefaultParams())
	enc, err := petri.EncodeFiringAsEnabling(net)
	if err != nil {
		b.Fatal(err)
	}
	var dIPC float64
	for i := 0; i < b.N; i++ {
		s1 := runStats(b, net, paperCycles, 1988)
		s2 := runStats(b, enc, paperCycles, 1988)
		dIPC = mustThroughput(b, s1, "Issue") - mustThroughput(b, s2, "Issue")
		if dIPC < 0 {
			dIPC = -dIPC
		}
	}
	b.ReportMetric(float64(enc.NumTrans()-net.NumTrans()), "extra_transitions")
	b.ReportMetric(dIPC, "abs_ipc_delta")
}

// BenchmarkAblationInterpreted measures what the interpreted model
// costs at runtime compared with the explicit per-type net (Section 3's
// trade-off: constant net size, data-dependent behaviour, slower
// stepping).
func BenchmarkAblationInterpreted(b *testing.B) {
	p := pipeline.DefaultParams()
	explicit := mustProcessor(b, p)
	interp, err := pipeline.InterpretedProcessor(p, pipeline.DefaultInstructionSet())
	if err != nil {
		b.Fatal(err)
	}
	b.Run("explicit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runStats(b, explicit, paperCycles, 1)
		}
	})
	b.Run("interpreted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runStats(b, interp, paperCycles, 1)
		}
	})
}

// BenchmarkReachability exercises the analyzer of Section 4 on the full
// pipeline net (untimed) plus the temporal check that the execution
// unit is always eventually free.
func BenchmarkReachability(b *testing.B) {
	net := mustProcessor(b, pipeline.DefaultParams())
	var states int
	for i := 0; i < b.N; i++ {
		g, err := reach.Build(context.Background(), net, reach.Options{MaxStates: 200_000})
		if err != nil {
			b.Fatal(err)
		}
		states = len(g.Nodes)
		if !reach.Holds(g, reach.MustParseFormula("AG(EF({Execution_unit == 1}))")) {
			b.Fatal("execution unit can be permanently lost")
		}
	}
	b.ReportMetric(float64(states), "states")
}

// BenchmarkAnalytic solves the full pipeline model analytically
// [RP84]: timed reachability graph (3568 states) -> embedded Markov
// chain -> exact steady state by sparse GTH state reduction, so an
// iteration times one BuildTimed plus one direct solve. Reported: the
// analytic instruction rate and bus utilization, to be compared with
// the simulated Figure 5 values (they agree to three decimals; see
// EXPERIMENTS.md).
func BenchmarkAnalytic(b *testing.B) {
	net := mustProcessor(b, pipeline.DefaultParams())
	var bus, issue float64
	var states int
	for i := 0; i < b.N; i++ {
		r, err := analytic.Evaluate(context.Background(), net, reach.Options{MaxStates: 500_000})
		if err != nil {
			b.Fatal(err)
		}
		bus, _ = r.Utilization("Bus_busy")
		issue, _ = r.Throughput("Issue")
		states = r.States
	}
	b.ReportMetric(bus, "bus_util_exact")
	b.ReportMetric(issue, "ipc_exact")
	b.ReportMetric(float64(states), "timed_states")
}

// BenchmarkReplications runs the Figure 5 experiment as 10 independent
// replications (a zero-axis sweep, seeds 100..109) and reports the 95%
// confidence half-width of the instruction rate — the statistical
// rigor layer over the paper's single-run table.
func BenchmarkReplications(b *testing.B) {
	net := mustProcessor(b, pipeline.DefaultParams())
	opt := experiment.SweepOptions{
		Reps:     10,
		BaseSeed: 100,
		Sim:      sim.Options{Horizon: paperCycles},
		Metrics:  []experiment.Metric{experiment.Throughput("Issue")},
		Build:    func(experiment.Point) (*petri.Net, error) { return net, nil },
	}
	var sum stats.Summary
	for i := 0; i < b.N; i++ {
		sum = mustSweep(b, opt).Points[0].Summaries[0]
	}
	b.ReportMetric(sum.Mean, "ipc_mean")
	b.ReportMetric(sum.CI95, "ipc_ci95")
}

// BenchmarkEngineReuse quantifies what the resettable engine saves a
// replication driver: back-to-back runs on one engine versus a fresh
// engine per run.
func BenchmarkEngineReuse(b *testing.B) {
	net := mustProcessor(b, pipeline.DefaultParams())
	b.Run("reused", func(b *testing.B) {
		eng := sim.NewEngine(net)
		for i := 0; i < b.N; i++ {
			if _, err := eng.Run(context.Background(), nil, sim.Options{Horizon: 1_000, Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sim.Run(context.Background(), net, nil, sim.Options{Horizon: 1_000, Seed: int64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSimulatorThroughput measures raw engine speed on the
// pipeline model, one fresh paper-length run per iteration: events
// (completed firings) per wall-clock second, nanoseconds per event and
// simulated cycles per wall-clock second, the rate that drives every
// experiment above.
func BenchmarkSimulatorThroughput(b *testing.B) {
	net := mustProcessor(b, pipeline.DefaultParams())
	var events int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(context.Background(), net, nil, sim.Options{Horizon: paperCycles, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		events += res.Ends
	}
	sec := b.Elapsed().Seconds()
	b.ReportMetric(float64(events)/sec, "events/s")
	b.ReportMetric(sec*1e9/float64(events), "ns/event")
	b.ReportMetric(float64(b.N)*paperCycles/sec, "cycles/s")
}

// TestBenchmarkShapesHold is a fast correctness gate over the same
// machinery the benchmarks use: every "who wins" relation reported in
// EXPERIMENTS.md must hold when the benches are run as tests.
func TestBenchmarkShapesHold(t *testing.T) {
	net := mustProcessor(t, pipeline.DefaultParams())
	s := runStats(t, net, paperCycles, 1988)
	rows := map[string][2]float64{ // name -> {paper value, tolerance}
		"pre_fetching": {0.3107, 0.08},
		"fetching":     {0.2275, 0.08},
		"storing":      {0.12, 0.06},
		"Bus_busy":     {0.6582, 0.12},
	}
	for place, pv := range rows {
		got := mustUtilization(t, s, place)
		if got < pv[0]-pv[1] || got > pv[0]+pv[1] {
			t.Errorf("%s utilization = %.4f, paper %.4f (± %.2f)", place, got, pv[0], pv[1])
		}
	}
	issue := mustThroughput(t, s, "Issue")
	if issue < 0.09 || issue > 0.16 {
		t.Errorf("Issue throughput %.4f vs paper 0.1238", issue)
	}
}

// Example-flavoured documentation check: the derived quantities the
// paper reads off Figure 5 print without error.
func Example() {
	net, err := pipeline.Processor(pipeline.DefaultParams())
	if err != nil {
		panic(err)
	}
	s := stats.New(trace.HeaderOf(net))
	if _, err := sim.Run(context.Background(), net, s, sim.Options{Horizon: 10_000, Seed: 1988}); err != nil {
		panic(err)
	}
	issue, _ := s.Throughput("Issue")
	fmt.Printf("instruction rate in [0.09, 0.16]: %v\n", issue > 0.09 && issue < 0.16)
	// Output: instruction rate in [0.09, 0.16]: true
}
