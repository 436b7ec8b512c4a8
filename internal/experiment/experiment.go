// Package experiment runs the paper's "many simulation experiments"
// workflow: Sweep expands named parameter axes into a grid of points,
// fans every (point, replication) cell out across one pool of workers,
// and merges the results deterministically. A sweep with no axes is a
// single point, which makes it the replication driver as well: R
// independent replications of one net, summarized with 95% confidence
// intervals.
//
// Replications of a stochastic experiment are embarrassingly parallel,
// so the pool scales the hot path with cores while every result stays
// exactly reproducible:
//
//   - Seeds are sharded from a base seed: cell c always runs with seed
//     BaseSeed+c, no matter which worker executes it.
//   - Every worker owns its engine, RNG and accumulators outright
//     (observers are thread-confined, see trace.Observer), so runs
//     share nothing but the immutable petri.Net.
//   - Per-cell results are collected into a slice indexed by cell and
//     folded in replication order, so merged statistics are bit-for-bit
//     identical for any worker count.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
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

func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

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
