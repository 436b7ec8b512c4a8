// Spec is the declarative (JSON) face of the shared sweep surface: the
// job body the simulation server accepts over HTTP describes exactly
// the grid the CLIs describe with flags. To guarantee the two surfaces
// cannot drift apart — in defaults, spellings or validation — a spec is
// not interpreted directly: Resolve renders it to its pnut-sweep flag
// list and parses that through Config.Register on a fresh FlagSet, so
// an omitted spec field inherits the flag's default and a bad value
// fails with the flag's own error.
package sweepcli

import (
	"flag"
	"fmt"
	"io"
	"strconv"

	"repro/internal/experiment"
	"repro/internal/petri"
)

// Spec is one sweep job: model source, grid axes, replication/seed
// schedule and metric set. Zero values mean "the shared CLI default"
// (reps 5, horizon 10000, seed 1, ...); in particular a zero Seed
// resolves to the default base seed 1, exactly as omitting -seed does.
type Spec struct {
	// Model selects a built-in model (pipeline or cache); Net carries
	// inline .pn source and overrides Model, exactly as -net overrides
	// -model on the CLIs.
	Model string `json:"model,omitempty"`
	Net   string `json:"net,omitempty"`

	// Axes are swept parameters in the CLI's textual axis form:
	// "Name=v1,v2,..." or "Name=lo:hi:step" (forms mix freely).
	Axes []string `json:"axes,omitempty"`

	Reps      int   `json:"reps,omitempty"`
	Seed      int64 `json:"seed,omitempty"`
	Horizon   int64 `json:"horizon,omitempty"`
	MaxStarts int64 `json:"maxStarts,omitempty"`

	// Adaptive is the CI-targeted stopping rule as "metric:relci";
	// MinReps/MaxReps/Batch shape its rounds (zero = flag default).
	Adaptive string `json:"adaptive,omitempty"`
	MinReps  int    `json:"minReps,omitempty"`
	MaxReps  int    `json:"maxReps,omitempty"`
	Batch    int    `json:"batch,omitempty"`

	Throughput  []string `json:"throughput,omitempty"`
	Utilization []string `json:"utilization,omitempty"`

	// Engine selects the grid engine: sim (the default), reach or
	// analytic. The cross-validation mode sim+analytic is CLI-only and
	// rejected here, exactly as pnut-grid rejects it.
	Engine string `json:"engine,omitempty"`
	// MaxStates/BoundCap bound the exhaustive engines' state space per
	// grid point (0 = the reach defaults); ExploreShards is the reach
	// engine's per-cell parallelism (never affects results). Bound and
	// Ctl are the reach engine's metric selectors.
	MaxStates     int      `json:"maxStates,omitempty"`
	BoundCap      int      `json:"boundCap,omitempty"`
	ExploreShards int      `json:"exploreShards,omitempty"`
	Bound         []string `json:"bound,omitempty"`
	Ctl           []string `json:"ctl,omitempty"`
	// SpillBudget (0 = every row in memory) and SpillDir let the
	// exhaustive engines' jobs whose state space exceeds RAM complete
	// by spilling rows to a temp file. Results are bit-identical for
	// every budget.
	SpillBudget int64  `json:"spillBudget,omitempty"`
	SpillDir    string `json:"spillDir,omitempty"`

	// Parallel caps the job's worker goroutines (0 = server default;
	// never affects results). Format selects the result rendering:
	// csv (default), table or json. Neither enters the sweep grid.
	Parallel int    `json:"parallel,omitempty"`
	Format   string `json:"format,omitempty"`
}

// ModelInfo identifies the job's model for content addressing. Digest
// is "net:<canonical sha256>" for inline nets — two formatting or
// declaration-order variants of the same model digest equal — and
// "builtin:<model>" for the built-in families.
type ModelInfo struct {
	Name   string
	Digest string
}

// Flags renders the spec as its pnut-sweep flag list, omitting flags
// for zero-valued fields so they keep the registered defaults. The
// model source is included as -model only; inline Net source has no
// flag form and is resolved separately by Resolve.
func (s *Spec) Flags() []string {
	var args []string
	if s.Net == "" && s.Model != "" {
		args = append(args, "-model", s.Model)
	}
	for _, a := range s.Axes {
		args = append(args, "-axis", a)
	}
	if s.Reps != 0 {
		args = append(args, "-reps", strconv.Itoa(s.Reps))
	}
	if s.Seed != 0 {
		args = append(args, "-seed", strconv.FormatInt(s.Seed, 10))
	}
	if s.Horizon != 0 {
		args = append(args, "-horizon", strconv.FormatInt(s.Horizon, 10))
	}
	if s.MaxStarts != 0 {
		args = append(args, "-max-starts", strconv.FormatInt(s.MaxStarts, 10))
	}
	if s.Adaptive != "" {
		args = append(args, "-adaptive", s.Adaptive)
		if s.MinReps != 0 {
			args = append(args, "-min-reps", strconv.Itoa(s.MinReps))
		}
		if s.MaxReps != 0 {
			args = append(args, "-max-reps", strconv.Itoa(s.MaxReps))
		}
		if s.Batch != 0 {
			args = append(args, "-batch", strconv.Itoa(s.Batch))
		}
	}
	for _, tr := range s.Throughput {
		args = append(args, "-throughput", tr)
	}
	for _, u := range s.Utilization {
		args = append(args, "-utilization", u)
	}
	if s.Engine != "" {
		args = append(args, "-engine", s.Engine)
	}
	if s.MaxStates != 0 {
		args = append(args, "-max-states", strconv.Itoa(s.MaxStates))
	}
	if s.BoundCap != 0 {
		args = append(args, "-bound-cap", strconv.Itoa(s.BoundCap))
	}
	if s.ExploreShards != 0 {
		args = append(args, "-explore-shards", strconv.Itoa(s.ExploreShards))
	}
	if s.SpillBudget != 0 {
		args = append(args, "-spill-budget", strconv.FormatInt(s.SpillBudget, 10))
	}
	if s.SpillDir != "" {
		args = append(args, "-spill-dir", s.SpillDir)
	}
	for _, p := range s.Bound {
		args = append(args, "-bound", p)
	}
	for _, f := range s.Ctl {
		args = append(args, "-ctl", f)
	}
	if s.Parallel != 0 {
		args = append(args, "-parallel", strconv.Itoa(s.Parallel))
	}
	return args
}

// Resolve expands the spec into sweep options plus the model identity,
// by round-tripping through the real CLI flag surface (see the package
// comment of this file). The returned options are validated the same
// way pnut-sweep validates its command line.
func (s *Spec) Resolve() (experiment.SweepOptions, ModelInfo, error) {
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var c Config
	c.Register(fs)
	if err := fs.Parse(s.Flags()); err != nil {
		return experiment.SweepOptions{}, ModelInfo{}, fmt.Errorf("spec: %w", err)
	}
	if args := fs.Args(); len(args) > 0 {
		return experiment.SweepOptions{}, ModelInfo{}, fmt.Errorf("spec: unexpected arguments %q", args)
	}

	var (
		build func(experiment.Point) (*petri.Net, error)
		info  ModelInfo
	)
	if s.Net != "" {
		hook, base, err := netBuildHook(s.Net)
		if err != nil {
			return experiment.SweepOptions{}, ModelInfo{}, fmt.Errorf("spec net: %w", err)
		}
		build = hook
		info = ModelInfo{Name: base.Name, Digest: "net:" + base.CanonicalHashString()}
	} else {
		hook, name, err := buildHook("", c.Model)
		if err != nil {
			return experiment.SweepOptions{}, ModelInfo{}, fmt.Errorf("spec: %w", err)
		}
		build = hook
		info = ModelInfo{Name: name, Digest: "builtin:" + c.Model}
	}

	opt, err := c.optionsWith(build)
	if err != nil {
		return experiment.SweepOptions{}, ModelInfo{}, fmt.Errorf("spec: %w", err)
	}
	if err := opt.Validate(); err != nil {
		return experiment.SweepOptions{}, ModelInfo{}, fmt.Errorf("spec: %w", err)
	}
	return opt, info, nil
}
