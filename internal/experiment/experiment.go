// Package experiment is the parallel replication driver for the P-NUT
// simulator: it fans N independent replications of one experiment out
// across a pool of workers, one sim.Engine and one statistics
// accumulator per worker, and merges the results deterministically.
//
// The paper's workflow is "run many simulation experiments and pipe
// them through analysis tools"; replications of a stochastic experiment
// are embarrassingly parallel, so the driver scales the hot path with
// cores while keeping the result exactly reproducible:
//
//   - Seeds are sharded from a base seed: replication i always runs
//     with seed BaseSeed+i, no matter which worker executes it.
//   - Every worker owns its engine, RNG and accumulators outright
//     (observers are thread-confined, see trace.Observer), so runs
//     share nothing but the immutable petri.Net.
//   - Per-replication results are collected into a slice indexed by
//     replication number and folded in that order, so merged statistics
//     are bit-for-bit identical for any worker count.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/petri"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Metric is a named per-replication scalar extracted from a run's
// statistics, summarized across replications with a 95% CI.
type Metric struct {
	Name string
	Eval func(*stats.Stats) (float64, error)
}

// Throughput returns a metric measuring a transition's completions per
// tick (the paper reads instruction rate off transition Issue this way).
func Throughput(transition string) Metric {
	return Metric{
		Name: "throughput(" + transition + ")",
		Eval: func(s *stats.Stats) (float64, error) { return s.Throughput(transition) },
	}
}

// Utilization returns a metric measuring a place's time-weighted mean
// token count (e.g. bus utilization off place Bus_busy).
func Utilization(place string) Metric {
	return Metric{
		Name: "utilization(" + place + ")",
		Eval: func(s *stats.Stats) (float64, error) { return s.Utilization(place) },
	}
}

// Options configure one replicated experiment.
type Options struct {
	// Reps is the number of independent replications (at least 1).
	Reps int
	// Workers caps the worker pool; 0 or less means GOMAXPROCS. The
	// worker count never affects results, only wall-clock time.
	Workers int
	// BaseSeed seeds replication i with BaseSeed+i. The Seed field of
	// Sim is ignored.
	BaseSeed int64
	// Sim holds the per-run simulation options (Horizon or MaxStarts
	// must be set, exactly as for sim.Run).
	Sim sim.Options
	// Metrics are evaluated against each replication's statistics and
	// summarized across replications.
	Metrics []Metric
	// Observe, if non-nil, supplies one extra observer per replication
	// (Tee'd with the statistics accumulator). Each call must return a
	// fresh observer: it is confined to that replication's goroutine.
	Observe func(rep int) trace.Observer
}

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

func (o *Options) workers() int {
	w := o.Workers
	if w <= 0 {
		w = defaultWorkers()
	}
	if w > o.Reps {
		w = o.Reps
	}
	return w
}

// Result is the outcome of a replicated experiment.
type Result struct {
	// Reps and Workers echo the effective experiment shape.
	Reps    int
	Workers int
	// Pooled holds the statistics of all replications merged in
	// replication order (deterministic for any worker count).
	Pooled *stats.Stats
	// Summaries holds one cross-replication summary per metric, in
	// Options.Metrics order.
	Summaries []stats.Summary
	// Values holds the per-replication metric values, Values[m][i]
	// being metric m of replication i.
	Values [][]float64
	// Runs holds each replication's run summary, indexed by replication.
	Runs []sim.Result
	// Elapsed is the wall-clock time of the whole experiment; Events is
	// the total number of firings completed across replications.
	Elapsed time.Duration
	Events  int64

	names []string // metric names, parallel to Summaries
}

// Summary returns the cross-replication summary of a named metric.
func (r *Result) Summary(name string) (stats.Summary, bool) {
	for i, n := range r.names {
		if n == name {
			return r.Summaries[i], true
		}
	}
	return stats.Summary{}, false
}

// cellError carries the first failure out of the pool.
type cellError struct {
	cell int
	err  error
}

// runPool fans cells 0..cells-1 out across a pool of worker goroutines.
// Cells are claimed off a shared atomic counter, so scheduling is
// dynamic; do is called with the claiming worker's index so callers can
// keep worker-confined state (engines, scratch buffers) in a slice
// indexed by worker. The first cell error stops the pool and is
// returned together with its cell index; a panic in do is recovered
// and fails its cell the same way, so one bad cell cannot take down a
// long-lived process. Cancelling ctx stops the pool
// at the next cell boundary (in-flight cells finish first) and returns
// ctx's error with cell index -1.
func runPool(ctx context.Context, workers, cells int, do func(worker, cell int) error) (int, error) {
	var (
		next    atomic.Int64 // next cell to claim
		failed  atomic.Bool
		errOnce sync.Once
		firstE  cellError
		wg      sync.WaitGroup
	)
	fail := func(cell int, err error) {
		errOnce.Do(func() { firstE = cellError{cell, err} })
		failed.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for !failed.Load() {
				if err := ctx.Err(); err != nil {
					fail(-1, err)
					return
				}
				cell := int(next.Add(1)) - 1
				if cell >= cells {
					return
				}
				if err := runCell(do, worker, cell); err != nil {
					fail(cell, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if failed.Load() {
		return firstE.cell, firstE.err
	}
	return 0, nil
}

// runCell calls do for one cell, turning a panic into the cell's error
// with the panicking goroutine's stack. The deferred closure is
// open-coded, so the happy path allocates nothing.
func runCell(do func(worker, cell int) error, worker, cell int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return do(worker, cell)
}

// Run executes opt.Reps independent replications of net across a
// worker pool and merges the results. The merged statistics and every
// metric summary are bit-for-bit independent of the worker count.
//
// ctx cancels the experiment: the pool stops claiming replications,
// in-flight runs stop at their next scheduler batch (the context is
// threaded into sim.Engine.Run), and ctx's error is returned. Pass
// context.Background() when cancellation is not needed.
func Run(ctx context.Context, net *petri.Net, opt Options) (*Result, error) {
	if opt.Reps < 1 {
		return nil, fmt.Errorf("experiment: Reps must be at least 1, got %d", opt.Reps)
	}
	workers := opt.workers()
	h := trace.HeaderOf(net)
	start := time.Now()

	perRep := make([]*stats.Stats, opt.Reps)
	runs := make([]sim.Result, opt.Reps)
	vals := make([][]float64, len(opt.Metrics))
	for m := range vals {
		vals[m] = make([]float64, opt.Reps)
	}

	engs := make([]*sim.Engine, workers)
	if rep, err := runPool(ctx, workers, opt.Reps, func(worker, rep int) error {
		if engs[worker] == nil {
			engs[worker] = sim.NewEngine(net)
		}
		so := opt.Sim
		so.Seed = opt.BaseSeed + int64(rep)
		acc := stats.New(h)
		var obs trace.Observer = acc
		if opt.Observe != nil {
			if extra := opt.Observe(rep); extra != nil {
				obs = trace.Tee{acc, extra}
			}
		}
		res, err := engs[worker].Run(ctx, obs, so)
		if err != nil {
			return err
		}
		for m := range opt.Metrics {
			v, err := opt.Metrics[m].Eval(acc)
			if err != nil {
				return err
			}
			vals[m][rep] = v
		}
		perRep[rep] = acc
		runs[rep] = res
		return nil
	}); err != nil {
		if rep < 0 {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		return nil, fmt.Errorf("experiment: replication %d: %w", rep, err)
	}

	// Fold in replication order: floating-point sums then associate the
	// same way no matter how the replications were scheduled.
	pooled := perRep[0]
	for i := 1; i < opt.Reps; i++ {
		if err := pooled.Merge(perRep[i]); err != nil {
			return nil, fmt.Errorf("experiment: merging replication %d: %w", i, err)
		}
	}

	r := &Result{
		Reps:      opt.Reps,
		Workers:   workers,
		Pooled:    pooled,
		Summaries: make([]stats.Summary, len(opt.Metrics)),
		Values:    vals,
		Runs:      runs,
		Elapsed:   time.Since(start),
		names:     make([]string, len(opt.Metrics)),
	}
	for m := range opt.Metrics {
		r.Summaries[m] = stats.Summarize(vals[m])
		r.names[m] = opt.Metrics[m].Name
	}
	for i := range runs {
		r.Events += runs[i].Ends
	}
	return r, nil
}
