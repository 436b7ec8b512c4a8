// The backend abstraction makes the sweep grid engine-agnostic: the
// paper's point is that exhaustive analysis (reachability, temporal
// logic) and stochastic simulation are complementary modes over the
// same net, so the sweep/dist/server machinery — grids, seeds, cell
// records, journals, caches — must not care which mode computes a
// cell. A Backend supplies the per-cell computation; everything else
// (grid expansion, worker pools, in-order emit, assembly) is shared.
//
// SimBackend is the default and reproduces the pre-abstraction
// simulation path byte for byte. The exhaustive backends (ReachBackend,
// AnalyticBackend) are deterministic: a cell's value depends only on
// the point's net, never on the seed, so replications collapse to 1
// and tables carry exact values with zero-width confidence intervals.
package experiment

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/petri"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Backend selects the engine that computes one grid cell. Backends are
// stateless descriptions; per-worker state (engines, scratch) lives in
// the BackendWorker they mint.
type Backend interface {
	// Engine is the backend's wire name ("sim", "reach", "analytic"):
	// the -engine flag value, the Spec.Engine field and the cell
	// stream's meta tag.
	Engine() string
	// Deterministic reports whether a cell's outcome is independent of
	// its seed. Deterministic backends require Reps == 1 and reject
	// adaptive replication (Validate enforces both).
	Deterministic() bool
	// NewWorker mints one worker's cell runner. It is called lazily,
	// once per pool worker, and must validate the sweep's metric names
	// eagerly — Validate calls it with a scratch options copy so a bad
	// metric fails before any work is scheduled.
	NewWorker(opt *SweepOptions) (BackendWorker, error)
}

// CellInput is everything a backend needs to compute one cell. Cells
// of one point share the immutable Net; Cell is the absolute grid
// index and Seed is BaseSeed + Cell (deterministic backends ignore
// it).
type CellInput struct {
	Cell   int
	Point  int
	Net    *petri.Net
	Header trace.Header
	Seed   int64
}

// CellOutcome is a backend's cell result: one value per sweep metric
// (in Metrics order), the cell's statistics accumulator (never nil —
// deterministic backends return an empty one so records encode,
// journal and merge uniformly), and the run summary (zero for
// non-simulating backends).
type CellOutcome struct {
	Values []float64
	Stats  *stats.Stats
	Run    sim.Result
}

// BackendWorker computes cells for one pool worker. Workers are
// goroutine-confined: RunCell is never called concurrently on the same
// worker, and cells arrive in claim order (point-major), so a worker
// may cache per-point state across calls.
type BackendWorker interface {
	RunCell(ctx context.Context, in CellInput) (CellOutcome, error)
}

// backend returns the effective backend: the configured one, or the
// simulation default.
func (o *SweepOptions) backend() Backend {
	if o.Backend == nil {
		return SimBackend{}
	}
	return o.Backend
}

// SimBackend is the stochastic simulation engine — the sweep's default
// and the only backend whose cells depend on their seed.
type SimBackend struct {
	// Observe, if non-nil, supplies one extra observer per cell, Tee'd
	// with the cell's statistics accumulator; a nil return adds none.
	// Each call must return a fresh observer: it is confined to that
	// cell's goroutine. It sees the cell's whole trace, through Final.
	Observe func(cell int) trace.Observer
}

// Engine implements Backend.
func (SimBackend) Engine() string { return "sim" }

// Deterministic implements Backend.
func (SimBackend) Deterministic() bool { return false }

// NewWorker implements Backend.
func (b SimBackend) NewWorker(opt *SweepOptions) (BackendWorker, error) {
	for i := range opt.Metrics {
		if opt.Metrics[i].Eval == nil {
			return nil, fmt.Errorf("experiment: metric %q has no Eval hook (name-only metrics belong to the exhaustive engines)", opt.Metrics[i].Name)
		}
	}
	return &simWorker{opt: opt, observe: b.Observe}, nil
}

// simWorker keeps the worker-confined engine state the pre-backend
// pool kept inline: the engine is rebuilt only on point boundaries, so
// consecutive cells of one point reuse it.
type simWorker struct {
	opt     *SweepOptions
	observe func(cell int) trace.Observer
	point   int
	eng     *sim.Engine
}

func (w *simWorker) RunCell(ctx context.Context, in CellInput) (CellOutcome, error) {
	if w.eng == nil || w.point != in.Point {
		w.eng = sim.NewEngine(in.Net)
		w.point = in.Point
	}
	so := w.opt.Sim
	so.Seed = in.Seed
	acc := stats.New(in.Header)
	var obs trace.Observer = acc
	if w.observe != nil {
		if extra := w.observe(in.Cell); extra != nil {
			obs = trace.Tee{acc, extra}
		}
	}
	res, err := w.eng.Run(ctx, obs, so)
	if err != nil {
		return CellOutcome{}, err
	}
	out := CellOutcome{
		Values: make([]float64, len(w.opt.Metrics)),
		Stats:  acc,
		Run:    res,
	}
	for m := range w.opt.Metrics {
		v, err := w.opt.Metrics[m].Eval(acc)
		if err != nil {
			return CellOutcome{}, err
		}
		out.Values[m] = v
	}
	return out, nil
}

// NamedMetric is a name-only metric for the exhaustive engines, whose
// values are resolved from the name by the backend (e.g. "states",
// "bound(Buf)", "ctl(AG({p <= 1}))", "throughput(Issue)") rather than
// evaluated against simulation statistics.
func NamedMetric(name string) Metric { return Metric{Name: name} }

// parseCall splits a metric name of the form "fn(arg)" and reports
// whether it had that shape. The arg is returned verbatim — CTL
// formulas contain nested parentheses, so everything between the first
// "(" and the final ")" is the argument.
func parseCall(name string) (fn, arg string, ok bool) {
	open := strings.IndexByte(name, '(')
	if open <= 0 || !strings.HasSuffix(name, ")") {
		return "", "", false
	}
	return name[:open], name[open+1 : len(name)-1], true
}
