// AnalyticBackend drives the exact steady-state solver through the
// sweep grid: each point's timed reachability graph is solved as a
// semi-Markov process (analytic.Evaluate) and the sweep metrics read
// exact throughputs and utilizations off the stationary distribution.
// Metric names are deliberately the simulation names — throughput(T),
// utilization(P) — so an analytic sweep's table aligns column for
// column with the simulation sweep over the same grid; that alignment
// is what the sim+analytic cross-validation mode diffs.
package experiment

import (
	"context"
	"fmt"

	"repro/internal/analytic"
	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/stats"
)

// AnalyticBackend is the exact analytic engine. The zero value uses
// the reach package's state-space defaults.
type AnalyticBackend struct {
	// Opt carries the state-space controls. MaxStates pins the grid and
	// enters the cell-stream meta (a truncated timed graph is an error,
	// not a lower bound); Shards/SpillBudget/SpillDir only shape the
	// timed build's execution and never affect results.
	Opt reach.Options
}

// Engine implements Backend.
func (AnalyticBackend) Engine() string { return "analytic" }

// Deterministic implements Backend.
func (AnalyticBackend) Deterministic() bool { return true }

// StatePins reports the state-space controls that pin the grid meta.
func (b AnalyticBackend) StatePins() (maxStates, boundCap int) {
	return b.Opt.MaxStates, b.Opt.BoundCap
}

// NewWorker implements Backend, resolving metric names eagerly.
func (b AnalyticBackend) NewWorker(opt *SweepOptions) (BackendWorker, error) {
	evals := make([]func(*analytic.Result) (float64, error), len(opt.Metrics))
	for i := range opt.Metrics {
		name := opt.Metrics[i].Name
		fn, arg, ok := parseCall(name)
		if !ok {
			return nil, fmt.Errorf("experiment: unknown analytic metric %q (want throughput(transition) or utilization(place))", name)
		}
		switch fn {
		case "throughput":
			tr := arg
			evals[i] = func(r *analytic.Result) (float64, error) { return r.Throughput(tr) }
		case "utilization":
			p := arg
			evals[i] = func(r *analytic.Result) (float64, error) { return r.Utilization(p) }
		default:
			return nil, fmt.Errorf("experiment: unknown analytic metric %q (want throughput(transition) or utilization(place))", name)
		}
	}
	return &analyticWorker{b: b, evals: evals}, nil
}

type analyticWorker struct {
	b     AnalyticBackend
	evals []func(*analytic.Result) (float64, error)
}

// RunCell implements BackendWorker. ctx threads through to the timed
// graph construction, so cancelling a sweep interrupts a cell
// mid-build at the next window barrier.
func (w *analyticWorker) RunCell(ctx context.Context, in CellInput) (CellOutcome, error) {
	if err := ctx.Err(); err != nil {
		return CellOutcome{}, err
	}
	r, err := analytic.Evaluate(ctx, in.Net, w.b.Opt)
	if err != nil {
		return CellOutcome{}, err
	}
	defer r.Close()
	out := CellOutcome{
		Values: make([]float64, len(w.evals)),
		Stats:  stats.New(in.Header),
		Run:    sim.Result{},
	}
	for i, eval := range w.evals {
		v, err := eval(r)
		if err != nil {
			return CellOutcome{}, err
		}
		out.Values[i] = v
	}
	return out, nil
}
