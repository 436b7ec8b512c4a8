// Spec is the declarative (JSON) face of the shared sweep surface: the
// job body the simulation server accepts over HTTP describes exactly
// the grid the CLIs describe with flags. To guarantee the two surfaces
// cannot drift apart — in defaults, spellings or validation — a spec is
// not interpreted directly: each field names its pnut-sweep flag in a
// `flag` struct tag, and Config sets those flags on a FlagSet that
// Config.Register installed, so an omitted spec field inherits the
// flag's default and a bad value fails with the flag's own error.
// Config.Spec reads the same tags back into the job document that a
// coordinator ships to its workers.
package sweepcli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"reflect"

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
	Model string `json:"model,omitempty" flag:"model"`
	Net   string `json:"net,omitempty"`

	// Axes are swept parameters in the CLI's textual axis form:
	// "Name=v1,v2,..." or "Name=lo:hi:step" (forms mix freely).
	Axes []string `json:"axes,omitempty" flag:"axis"`

	Reps      int   `json:"reps,omitempty" flag:"reps"`
	Seed      int64 `json:"seed,omitempty" flag:"seed"`
	Horizon   int64 `json:"horizon,omitempty" flag:"horizon"`
	MaxStarts int64 `json:"maxStarts,omitempty" flag:"max-starts"`

	// Adaptive is the CI-targeted stopping rule as "metric:relci";
	// MinReps/MaxReps/Batch shape its rounds (zero = flag default).
	Adaptive string `json:"adaptive,omitempty" flag:"adaptive"`
	MinReps  int    `json:"minReps,omitempty" flag:"min-reps"`
	MaxReps  int    `json:"maxReps,omitempty" flag:"max-reps"`
	Batch    int    `json:"batch,omitempty" flag:"batch"`

	Throughput  []string `json:"throughput,omitempty" flag:"throughput"`
	Utilization []string `json:"utilization,omitempty" flag:"utilization"`

	// Engine selects the grid engine: sim (the default), reach or
	// analytic. The cross-validation mode sim+analytic is CLI-only and
	// rejected here, exactly as pnut-grid rejects it.
	Engine string `json:"engine,omitempty" flag:"engine"`
	// MaxStates/BoundCap bound the exhaustive engines' state space per
	// grid point (0 = the reach defaults); ExploreShards is the reach
	// engine's per-cell parallelism (never affects results). Bound and
	// Ctl are the reach engine's metric selectors.
	MaxStates     int      `json:"maxStates,omitempty" flag:"max-states"`
	BoundCap      int      `json:"boundCap,omitempty" flag:"bound-cap"`
	ExploreShards int      `json:"exploreShards,omitempty" flag:"explore-shards"`
	Bound         []string `json:"bound,omitempty" flag:"bound"`
	Ctl           []string `json:"ctl,omitempty" flag:"ctl"`
	// SpillBudget (0 = every row in memory) and SpillDir let the
	// exhaustive engines' jobs whose state space exceeds RAM complete
	// by spilling rows to a temp file. Results are bit-identical for
	// every budget.
	SpillBudget int64  `json:"spillBudget,omitempty" flag:"spill-budget"`
	SpillDir    string `json:"spillDir,omitempty" flag:"spill-dir"`

	// Parallel caps the job's worker goroutines (0 = server default;
	// never affects results). Format selects the result rendering:
	// csv (default), table or json. Neither enters the sweep grid.
	Parallel int    `json:"parallel,omitempty" flag:"parallel"`
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

// Config sets a fresh Config from the spec: each non-zero field with
// a flag tag is set on a FlagSet that Config.Register installed, a
// list field once per element, so an omitted field keeps the flag's
// default and a bad value fails with the flag's own error. Net has no
// tag: a spec carries inline source, not a path, which Resolve parses.
func (s *Spec) Config() (Config, error) {
	var c Config
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	c.Register(fs)
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Tag.Get("flag"), v.Field(i)
		if name == "" || f.IsZero() {
			continue
		}
		vals, ok := f.Interface().([]string)
		if !ok {
			vals = []string{fmt.Sprint(f.Interface())}
		}
		for _, val := range vals {
			if err := fs.Set(name, val); err != nil {
				return Config{}, fmt.Errorf("invalid value %q for flag -%s: %v", val, name, err)
			}
		}
	}
	return c, nil
}

// DecodeSpec reads one job document as JSON, rejecting unknown fields:
// pnut-server decodes job bodies and pnut-sweep -spec its job with it.
func DecodeSpec(r io.Reader) (Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	err := dec.Decode(&s)
	return s, err
}

// Spec is the inverse of Spec.Config: the job document of this config,
// each tagged field read from its flag and Net holding the -net file's
// source, so it resolves alike in any directory on any machine. A zero
// field means the flag default, so lost names each flag set to zero
// over a non-zero default, with its value ("-seed 0").
func (c *Config) Spec() (s Spec, lost []string, err error) {
	var w Config
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	w.Register(fs)
	w = *c
	if c.Net != "" {
		src, err := os.ReadFile(c.Net)
		if err != nil {
			return Spec{}, nil, err
		}
		s.Net = string(src)
	}
	v := reflect.ValueOf(&s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Tag.Get("flag"); name != "" {
			fl, f := fs.Lookup(name), v.Field(i)
			f.Set(reflect.ValueOf(fl.Value.(flag.Getter).Get()).Convert(f.Type()))
			if f.IsZero() && fl.Value.String() != fl.DefValue {
				lost = append(lost, "-"+name+" "+fl.Value.String())
			}
		}
	}
	return s, lost, nil
}

// Resolve expands the spec into sweep options plus the model identity,
// through Config and the same option assembly pnut-sweep uses (see the
// package comment of this file). The returned options are validated the same
// way pnut-sweep validates its command line.
func (s *Spec) Resolve() (experiment.SweepOptions, ModelInfo, error) {
	c, err := s.Config()
	if err != nil {
		return experiment.SweepOptions{}, ModelInfo{}, fmt.Errorf("spec: %w", err)
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
