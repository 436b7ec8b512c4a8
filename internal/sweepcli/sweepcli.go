// Package sweepcli holds the flag surface shared by the simulating
// CLIs. The per-run shape (-horizon, -max-starts, -seed), the adaptive
// replication flags and the metric selectors are each one flag group —
// registered by pnut-sim, pnut-exp, pnut-sweep and pnut-grid from the
// same definitions, so the tools cannot drift apart in spelling,
// defaults or help text. Config composes the groups into the full sweep
// shape the pnut-sweep worker and the pnut-grid coordinator share.
// The JSON Spec names each flag once, in a struct tag that Spec.Config
// sets and Config.Spec reads, so a new sweep flag needs its Register
// line and one tagged Spec field, and no other code. The Spec is the
// one form in which a job reaches a worker (pnut-sweep -spec -), so a
// worker resolves the very document its coordinator resolved.
package sweepcli

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/experiment"
	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/ptl"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Repeated is a repeatable string flag.
type Repeated []string

func (r *Repeated) String() string { return strings.Join(*r, ", ") }
func (r *Repeated) Get() any       { return append([]string(nil), *r...) }

// Set appends one occurrence.
func (r *Repeated) Set(v string) error {
	*r = append(*r, v)
	return nil
}

// RunFlags is the per-run shape every simulating tool takes: how long
// to run and which seed to start from.
type RunFlags struct {
	Horizon   int64
	MaxStarts int64
	Seed      int64
}

// Register installs -horizon, -max-starts and -seed on fs with the
// shared defaults. seedUsage overrides the -seed help text for tools
// whose seed schedule needs explaining (the sweep grid); empty keeps
// the generic text.
func (f *RunFlags) Register(fs *flag.FlagSet, seedUsage string) {
	if seedUsage == "" {
		seedUsage = "base random seed (equal seeds give equal results)"
	}
	fs.Int64Var(&f.Horizon, "horizon", 10_000, "simulation length in clock ticks per run")
	fs.Int64Var(&f.MaxStarts, "max-starts", 0, "stop a run after this many firings (0 = horizon only)")
	fs.Int64Var(&f.Seed, "seed", 1, seedUsage)
}

// SimOptions expands the group into per-run simulation options.
func (f *RunFlags) SimOptions() sim.Options {
	return sim.Options{Horizon: f.Horizon, MaxStarts: f.MaxStarts, Seed: f.Seed}
}

// AdaptiveFlags is the CI-targeted stopping group: Adaptive is the
// "metric:relci" spec, empty for fixed-replication runs.
type AdaptiveFlags struct {
	Adaptive string
	MinReps  int
	MaxReps  int
	Batch    int
}

// Register installs the -adaptive flag family on fs.
func (f *AdaptiveFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&f.Adaptive, "adaptive", "", "adaptive replication as metric:relci, e.g. 'throughput(Issue):0.05':\n"+
		"run -min-reps per point, then batches of -batch more until the metric's\n"+
		"95% CI half-width is within relci of |mean| or -max-reps is hit; overrides -reps")
	fs.IntVar(&f.MinReps, "min-reps", 4, "with -adaptive: first-round replications per point (>= 2)")
	fs.IntVar(&f.MaxReps, "max-reps", 64, "with -adaptive: replication cap per point; also fixes the seed layout")
	fs.IntVar(&f.Batch, "batch", 0, "with -adaptive: extra replications per round for unconverged points (0 = min-reps)")
}

// Options parses the "metric:relci" spec and folds in the round shape
// (a zero Batch defaults to MinReps). It returns nil when -adaptive is
// unset. Metric names contain no colons, so the split is at the last
// one.
func (f *AdaptiveFlags) Options() (*experiment.AdaptiveOptions, error) {
	if f.Adaptive == "" {
		return nil, nil
	}
	i := strings.LastIndex(f.Adaptive, ":")
	if i < 0 {
		return nil, fmt.Errorf("-adaptive %q is not metric:relci (e.g. 'throughput(Issue):0.05')", f.Adaptive)
	}
	metric := strings.TrimSpace(f.Adaptive[:i])
	relCI, err := strconv.ParseFloat(strings.TrimSpace(f.Adaptive[i+1:]), 64)
	if err != nil || metric == "" {
		return nil, fmt.Errorf("-adaptive %q is not metric:relci (e.g. 'throughput(Issue):0.05')", f.Adaptive)
	}
	batch := f.Batch
	if batch == 0 {
		batch = f.MinReps
	}
	return &experiment.AdaptiveOptions{
		Metric:  metric,
		RelCI:   relCI,
		MinReps: f.MinReps,
		MaxReps: f.MaxReps,
		Batch:   batch,
	}, nil
}

// MetricFlags is the repeatable metric-selector group.
type MetricFlags struct {
	Throughputs  Repeated
	Utilizations Repeated
}

// Register installs -throughput and -utilization on fs.
func (f *MetricFlags) Register(fs *flag.FlagSet) {
	fs.Var(&f.Throughputs, "throughput", "transition whose completion rate to summarize (repeatable)")
	fs.Var(&f.Utilizations, "utilization", "place whose mean token count to summarize (repeatable)")
}

// Metrics expands the selectors, throughputs first.
func (f *MetricFlags) Metrics() []experiment.Metric {
	var metrics []experiment.Metric
	for _, tr := range f.Throughputs {
		metrics = append(metrics, experiment.Throughput(tr))
	}
	for _, p := range f.Utilizations {
		metrics = append(metrics, experiment.Utilization(p))
	}
	return metrics
}

// FaultFlags is the coordinator's fault-tolerance group: how hard a
// round fights for its spans before the run fails. Coordinator-only —
// these flags shape dispatch, never the grid, so the job spec does not
// carry them and they cannot change an output byte.
type FaultFlags struct {
	Retries   int
	Backoff   time.Duration
	Speculate bool
}

// Register installs -retries, -backoff and -speculate on fs.
func (f *FaultFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Retries, "retries", 0, "re-dispatches per failed shard span: only the undelivered cells are\n"+
		"re-planned and retried, this many times, before the run fails\n"+
		"(0 = fail on the first worker death)")
	fs.DurationVar(&f.Backoff, "backoff", 250*time.Millisecond,
		"base delay before retrying a failed span; doubles per attempt")
	fs.BoolVar(&f.Speculate, "speculate", false, "re-dispatch the longest-running span on idle workers (straggler\n"+
		"mitigation); duplicate deliveries are byte-identical and deduplicated")
}

// Apply copies the group into the coordinator options.
func (f *FaultFlags) Apply(o *dist.Options) {
	o.Retries = f.Retries
	o.Backoff = f.Backoff
	o.Speculate = f.Speculate
}

// Render writes a result to w in the -format of the sweeping CLIs: an
// aligned table (with table) or CSV (with csv).
func Render(w io.Writer, format string, table, csv func(io.Writer) error) error {
	bw := bufio.NewWriter(w)
	var err error
	switch format {
	case "table":
		err = table(bw)
	case "csv":
		err = csv(bw)
	default:
		err = fmt.Errorf("unknown -format %q (want table or csv)", format)
	}
	if err != nil {
		return err
	}
	return bw.Flush()
}

// TraceFormat installs the shared -trace-format flag on fs with the
// given default (text for tools whose trace goes to a terminal, col for
// bulk writers) and returns its value destination.
func TraceFormat(fs *flag.FlagSet, def string) *string {
	return fs.String("trace-format", def, "trace encoding: "+trace.FormatText+" (debuggable) or "+trace.FormatCol+" (compact columnar binary)")
}

// Config is the sweep shape the worker and coordinator CLIs share:
// model source, grid axes, replication/seed schedule and metrics. The
// embedded groups promote their fields, so cfg.Seed, cfg.Adaptive and
// cfg.Throughputs read as before the groups were factored out.
type Config struct {
	Model    string
	Net      string
	Reps     int
	Parallel int

	RunFlags
	AdaptiveFlags
	MetricFlags
	EngineFlags

	Axes Repeated
}

// Register installs the shared flags on fs.
func (c *Config) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Model, "model", "pipeline", "built-in model: pipeline or cache; axis names are parameters\n"+
		strings.Join(pipeline.ParamNames(), ", "))
	fs.StringVar(&c.Net, "net", "", "path to a .pn net (overrides -model; axis names are net vars)")
	c.RunFlags.Register(fs, "base seed; cell (point p, rep r) uses seed + p*reps + r\n(with -adaptive the stride is -max-reps: seed + p*max-reps + r)")
	fs.IntVar(&c.Reps, "reps", 5, "independent replications per grid point (fixed; see -adaptive)")
	fs.IntVar(&c.Parallel, "parallel", 0, "worker goroutines (0 = GOMAXPROCS; never affects results)")
	c.AdaptiveFlags.Register(fs)
	fs.Var(&c.Axes, "axis", "swept parameter as Name=v1,v2,... or Name=lo:hi:step (repeatable; product of axes is the grid)")
	c.MetricFlags.Register(fs)
	c.EngineFlags.Register(fs)
}

// Options expands the config into sweep options plus the model name.
// The sim and analytic engines require at least one metric; the reach
// engine derives its metric set from -bound/-ctl on top of a fixed
// structural core.
func (c *Config) Options() (experiment.SweepOptions, string, error) {
	build, name, err := buildHook(c.Net, c.Model)
	if err != nil {
		return experiment.SweepOptions{}, "", err
	}
	opt, err := c.optionsWith(build)
	return opt, name, err
}

// optionsWith expands the grid/replication/metric shape around an
// already-resolved build hook — the shared tail of Config.Options and
// Spec.Resolve, so the CLI and HTTP surfaces assemble sweeps through
// one code path.
func (c *Config) optionsWith(build func(experiment.Point) (*petri.Net, error)) (experiment.SweepOptions, error) {
	var parsed []experiment.Axis
	for _, a := range c.Axes {
		ax, err := experiment.ParseAxis(a)
		if err != nil {
			return experiment.SweepOptions{}, err
		}
		parsed = append(parsed, ax)
	}
	adaptive, err := c.AdaptiveFlags.Options()
	if err != nil {
		return experiment.SweepOptions{}, err
	}
	so := c.SimOptions()
	so.Seed = 0 // the sweep seeds each cell from BaseSeed
	opt := experiment.SweepOptions{
		Axes:     parsed,
		Reps:     c.Reps,
		Adaptive: adaptive,
		Workers:  c.Parallel,
		BaseSeed: c.Seed,
		Sim:      so,
		Build:    build,
	}
	// The engine choice supplies the metrics, the backend and — for the
	// deterministic engines — the collapsed replication shape.
	if err := c.applyEngine(&opt); err != nil {
		return experiment.SweepOptions{}, err
	}
	return opt, nil
}

// buildHook returns the per-point net builder: either the built-in
// pipeline models parameterized by name, or a .pn net with per-point
// var overrides.
func buildHook(netPath, model string) (func(experiment.Point) (*petri.Net, error), string, error) {
	if netPath != "" {
		src, err := os.ReadFile(netPath)
		if err != nil {
			return nil, "", err
		}
		build, base, err := netBuildHook(string(src))
		if err != nil {
			return nil, "", err
		}
		return build, base.Name, nil
	}
	switch model {
	case "pipeline", "cache":
		cached := model == "cache"
		name := "pipeline"
		if cached {
			name = "pipeline_cached"
		}
		return func(pt experiment.Point) (*petri.Net, error) {
			return pipeline.SweepProcessor(cached, pt.Names, pt.Values)
		}, name, nil
	}
	return nil, "", fmt.Errorf("unknown -model %q (want pipeline or cache)", model)
}

// netBuildHook parses .pn source and returns the per-point builder
// (axis names override the net's vars) plus the parsed base net —
// which the simulation server hashes for its content-addressed cache.
func netBuildHook(src string) (func(experiment.Point) (*petri.Net, error), *petri.Net, error) {
	base, err := ptl.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return func(pt experiment.Point) (*petri.Net, error) {
		over := make(map[string]int64, len(pt.Names))
		for i, n := range pt.Names {
			v := pt.Values[i]
			if v != float64(int64(v)) {
				return nil, fmt.Errorf("net var %s wants an integer, got %g", n, v)
			}
			over[n] = int64(v)
		}
		return base.WithVars(over)
	}, base, nil
}
