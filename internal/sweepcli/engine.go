// Engine selection for the shared sweep surface. The sweep grid —
// axes, points, the cell-record stream, the dist journal, the server
// cache — is engine-neutral; what differs per engine is how one cell is
// computed: stochastic simulation (sim), exhaustive state-space
// analysis (reach) or the exact steady-state solution (analytic). The
// EngineFlags group holds that choice plus the engine-specific knobs,
// and Config.applyEngine resolves it into the sweep's metrics, backend
// and replication shape — one code path shared by pnut-sweep,
// pnut-grid and the server's Spec surface, so an engine behaves
// identically no matter which tool drives it.
package sweepcli

import (
	"errors"
	"flag"
	"fmt"
	"strconv"

	"repro/internal/experiment"
	"repro/internal/reach"
)

// EngineFlags selects the grid engine and its knobs. The zero value is
// the simulation engine with the reach package's state-space defaults.
type EngineFlags struct {
	// Engine is sim, reach, analytic — or sim+analytic, pnut-sweep's
	// cross-validation mode (rejected everywhere else).
	Engine string
	// MaxStates and BoundCap bound each cell's state space for the
	// exhaustive engines (0 = the reach package defaults). They pin the
	// grid: truncating differently changes results.
	MaxStates int
	BoundCap  int
	// Explore is the per-cell exploration parallelism of the exhaustive
	// engines (0 = GOMAXPROCS). Like -parallel it never affects results.
	Explore int
	// SpillBudget (0 = every row in memory) and SpillDir let the
	// exhaustive engines' marking store spill to a temp file. Graphs are
	// bit-identical for every budget, so like -parallel neither enters
	// the cell metadata or the cache key.
	SpillBudget int64
	SpillDir    string
	// Bounds and Checks are the reach engine's repeatable metric
	// selectors: observed token bounds and CTL verdicts.
	Bounds Repeated
	Checks Repeated
}

// Register installs the -engine flag family on fs.
func (f *EngineFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Engine, "engine", "sim", "grid engine: sim (stochastic simulation), reach (exhaustive\n"+
		"state-space analysis; deterministic, one rep per point), analytic\n"+
		"(exact steady-state solution) or sim+analytic (pnut-sweep only:\n"+
		"run both and cross-validate)")
	f.RegisterState(fs)
	fs.Var(&f.Bounds, "bound", "with -engine reach: report the observed token bound of this place (repeatable)")
	fs.Var(&f.Checks, "ctl", "with -engine reach: check this CTL formula per grid point, 1 = holds (repeatable)")
}

// RegisterState installs just the state-space flags — the subset
// shared with pnut-reach, which explores one net rather than a grid.
func (f *EngineFlags) RegisterState(fs *flag.FlagSet) {
	fs.IntVar(&f.MaxStates, "max-states", 0, "state-space cap per exploration (0 = 100000)")
	fs.IntVar(&f.BoundCap, "bound-cap", 0, "flag a place as potentially unbounded past this token count (0 = 4096)")
	fs.IntVar(&f.Explore, "explore-shards", 0, "exploration goroutines per state-space build (0 = GOMAXPROCS,\nat most 256; never affects results)")
	fs.Var((*byteBudget)(&f.SpillBudget), "spill-budget", "budget in `bytes` for the state rows an exploration keeps in memory:\npast it the oldest blocks of rows spill to a temp file, while the\nnewest level stays in memory (0 = keep every row in memory, the\ndefault). Results are bit-identical for every budget")
	fs.StringVar(&f.SpillDir, "spill-dir", "", "directory for the spill temp file (empty = the system temp dir)")
}

// byteBudget is the -spill-budget value: a byte count of at least 0.
type byteBudget int64

func (b *byteBudget) String() string { return strconv.FormatInt(int64(*b), 10) }
func (b *byteBudget) Get() any       { return int64(*b) }

// Set parses v as an integer in any Go base prefix, rejecting negatives.
func (b *byteBudget) Set(v string) error {
	n, err := strconv.ParseInt(v, 0, 64)
	if err != nil {
		return err
	}
	if n < 0 {
		return errors.New("must be at least 0")
	}
	*b = byteBudget(n)
	return nil
}

// ReachOptions is the single constructor of reach.Options from the
// flag group: CLIs, the engine backends and the server's Spec surface
// all build their options here, so the mapping cannot drift between
// surfaces.
func (f *EngineFlags) ReachOptions() reach.Options {
	return reach.Options{
		MaxStates:   f.MaxStates,
		BoundCap:    f.BoundCap,
		Shards:      f.Explore,
		SpillBudget: f.SpillBudget,
		SpillDir:    f.SpillDir,
	}
}

// applyEngine resolves the engine choice into opt's metrics, backend
// and replication shape. opt arrives with the engine-neutral grid
// already in place (axes, seed schedule, adaptive rule, build hook).
func (c *Config) applyEngine(opt *experiment.SweepOptions) error {
	switch c.Engine {
	case "", "sim":
		if len(c.Bounds)+len(c.Checks) > 0 {
			return fmt.Errorf("-bound and -ctl are state-space metrics and need -engine reach")
		}
		if c.SpillBudget != 0 || c.SpillDir != "" {
			return fmt.Errorf("-spill-budget and -spill-dir shape the marking store of the exhaustive\nengines and need -engine reach or analytic")
		}
		metrics := c.Metrics()
		if len(metrics) == 0 {
			return fmt.Errorf("at least one -throughput or -utilization metric is required")
		}
		opt.Metrics = metrics
	case "reach":
		if len(c.Throughputs)+len(c.Utilizations) > 0 {
			return fmt.Errorf("-throughput and -utilization are timed metrics; -engine reach reports states,\ndeadlocks, deadtrans, truncated plus -bound and -ctl selections")
		}
		if opt.Adaptive != nil {
			return fmt.Errorf("-adaptive needs a stochastic engine; -engine reach is deterministic (one rep per point)")
		}
		metrics := []experiment.Metric{
			experiment.NamedMetric("states"),
			experiment.NamedMetric("deadlocks"),
			experiment.NamedMetric("deadtrans"),
			experiment.NamedMetric("truncated"),
		}
		for _, p := range c.Bounds {
			metrics = append(metrics, experiment.NamedMetric("bound("+p+")"))
		}
		for _, f := range c.Checks {
			metrics = append(metrics, experiment.NamedMetric("ctl("+f+")"))
		}
		opt.Metrics = metrics
		// Deterministic cells: replications would be byte-identical
		// copies, so the grid collapses to one rep per point.
		opt.Reps = 1
		opt.Backend = experiment.ReachBackend{Opt: c.EngineFlags.ReachOptions()}
	case "analytic":
		if len(c.Bounds)+len(c.Checks) > 0 {
			return fmt.Errorf("-bound and -ctl are state-space metrics and need -engine reach")
		}
		if opt.Adaptive != nil {
			return fmt.Errorf("-adaptive needs a stochastic engine; -engine analytic is exact (one rep per point)")
		}
		metrics := c.Metrics()
		if len(metrics) == 0 {
			return fmt.Errorf("at least one -throughput or -utilization metric is required")
		}
		opt.Metrics = metrics
		opt.Reps = 1
		opt.Backend = experiment.AnalyticBackend{Opt: c.EngineFlags.ReachOptions()}
	case "sim+analytic":
		return fmt.Errorf("-engine sim+analytic is pnut-sweep's cross-validation mode and cannot run as a single grid")
	default:
		return fmt.Errorf("unknown -engine %q (want sim, reach, analytic or sim+analytic)", c.Engine)
	}
	return nil
}

// CrossOptions expands a -engine sim+analytic config into its two
// halves: the stochastic sweep and the exact sweep over the same grid.
// The metrics align column for column (the analytic engine accepts the
// simulation metric names), so CrossValidate can diff the results
// point by point. The analytic half drops the adaptive rule — exact
// cells have no CI to converge — and collapses to one rep per point.
func (c *Config) CrossOptions() (simOpt, anaOpt experiment.SweepOptions, name string, err error) {
	if c.Engine != "sim+analytic" {
		return simOpt, anaOpt, "", fmt.Errorf("cross-validation needs -engine sim+analytic, have %q", c.Engine)
	}
	sc := *c
	sc.Engine = "sim"
	simOpt, name, err = sc.Options()
	if err != nil {
		return simOpt, anaOpt, "", err
	}
	ac := *c
	ac.Engine = "analytic"
	ac.AdaptiveFlags = AdaptiveFlags{}
	anaOpt, _, err = ac.Options()
	if err != nil {
		return simOpt, anaOpt, "", err
	}
	return simOpt, anaOpt, name, nil
}
