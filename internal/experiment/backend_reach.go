// ReachBackend drives exhaustive state-space analysis through the
// sweep grid: every grid point's net is explored to its full untimed
// reachability graph and the sweep metrics read structural facts off
// it — graph size, deadlock count, boundedness, CTL verdicts. The
// paper runs these analyses one net at a time; as a sweep backend they
// run over whole parameter grids, sharing the pool, the cell-record
// stream, the dist journal and the server cache with simulation.
package experiment

import (
	"context"
	"fmt"

	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ReachBackend is the exhaustive reachability engine. The zero value
// uses the reach package defaults (100k states, bound cap 4096, every
// row in memory, GOMAXPROCS exploration).
type ReachBackend struct {
	// Opt carries the full state-space controls. MaxStates and
	// BoundCap pin the grid and enter the cell-stream meta;
	// Shards/SpillBudget/SpillDir only shape execution (graphs are
	// bit-identical for any value).
	Opt reach.Options
}

// Engine implements Backend.
func (ReachBackend) Engine() string { return "reach" }

// Deterministic implements Backend.
func (ReachBackend) Deterministic() bool { return true }

// StatePins reports the state-space controls that pin the grid meta.
func (b ReachBackend) StatePins() (maxStates, boundCap int) { return b.Opt.MaxStates, b.Opt.BoundCap }

// NewWorker implements Backend, resolving every metric name eagerly —
// a misspelled metric or malformed CTL formula fails validation, not a
// worker mid-sweep.
func (b ReachBackend) NewWorker(opt *SweepOptions) (BackendWorker, error) {
	evals := make([]func(*reach.Graph) (float64, error), len(opt.Metrics))
	for i := range opt.Metrics {
		eval, err := reachEval(opt.Metrics[i].Name)
		if err != nil {
			return nil, err
		}
		evals[i] = eval
	}
	return &reachWorker{b: b, evals: evals}, nil
}

// reachEval resolves one reach metric name. Supported names: states,
// deadlocks, deadtrans, truncated, bound(place), ctl(formula).
func reachEval(name string) (func(*reach.Graph) (float64, error), error) {
	switch name {
	case "states":
		return func(g *reach.Graph) (float64, error) { return float64(len(g.Nodes)), nil }, nil
	case "deadlocks":
		return func(g *reach.Graph) (float64, error) { return float64(len(g.Deadlocks())), nil }, nil
	case "deadtrans":
		return func(g *reach.Graph) (float64, error) { return float64(len(g.DeadTransitions())), nil }, nil
	case "truncated":
		return func(g *reach.Graph) (float64, error) { return bool01(g.Truncated), nil }, nil
	}
	fn, arg, ok := parseCall(name)
	if ok {
		switch fn {
		case "bound":
			place := arg
			return func(g *reach.Graph) (float64, error) {
				b, err := g.Bound(place)
				return float64(b), err
			}, nil
		case "ctl":
			f, err := reach.ParseFormula(arg)
			if err != nil {
				return nil, fmt.Errorf("experiment: reach metric %q: %w", name, err)
			}
			return func(g *reach.Graph) (float64, error) { return bool01(reach.Holds(g, f)), nil }, nil
		}
	}
	return nil, fmt.Errorf("experiment: unknown reach metric %q (want states, deadlocks, deadtrans, truncated, bound(place) or ctl(formula))", name)
}

func bool01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

type reachWorker struct {
	b     ReachBackend
	evals []func(*reach.Graph) (float64, error)
}

// RunCell implements BackendWorker. ctx threads into reach.Build, so
// cancelling a sweep interrupts a cell mid-exploration at the next
// window barrier.
func (w *reachWorker) RunCell(ctx context.Context, in CellInput) (CellOutcome, error) {
	if err := ctx.Err(); err != nil {
		return CellOutcome{}, err
	}
	g, err := reach.Build(ctx, in.Net, w.b.Opt)
	if err != nil {
		return CellOutcome{}, err
	}
	defer g.Close()
	return w.cell(g, in.Header)
}

// cell reads the metrics off a built graph.
func (w *reachWorker) cell(g *reach.Graph, header trace.Header) (CellOutcome, error) {
	out := CellOutcome{
		Values: make([]float64, len(w.evals)),
		// Deterministic cells carry an empty accumulator: records then
		// encode, journal, merge and assemble exactly like simulation
		// cells, with every statistic zero.
		Stats: stats.New(header),
		Run:   sim.Result{},
	}
	for i, eval := range w.evals {
		v, err := eval(g)
		if err != nil {
			return CellOutcome{}, err
		}
		out.Values[i] = v
	}
	// A spill read that failed mid-scan leaves a figure computed from
	// a partial or zeroed state space; the store's error says so.
	if err := g.Err(); err != nil {
		return CellOutcome{}, err
	}
	return out, nil
}
