package sweepcli

import (
	"flag"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/dist"
)

// everyFlag sets every flag Config.Register installs to a value other
// than its default.
var everyFlag = Config{
	Model: "cache", Net: "../../testdata/pipeline.pn", Reps: 7, Parallel: 5,
	RunFlags:      RunFlags{Horizon: 1234, MaxStarts: 9, Seed: 42},
	AdaptiveFlags: AdaptiveFlags{Adaptive: "throughput(Issue):0.05", MinReps: 3, MaxReps: 24, Batch: 2},
	MetricFlags: MetricFlags{
		Throughputs:  Repeated{"Issue", "-horizon"},
		Utilizations: Repeated{"Bus_busy"},
	},
	EngineFlags: EngineFlags{
		Engine: "reach", MaxStates: 5000, BoundCap: 64, Explore: 2,
		SpillBudget: 1 << 20, SpillDir: "/tmp/spill dir",
		Bounds: Repeated{"p1", "p2"}, Checks: Repeated{"AG !deadlock", ""},
	},
	Axes: Repeated{"DHitRatio=0:1:0.25", "MemoryCycles=1,5,12"},
}

// TestConfigSpecRoundTrip pins the lockstep contract of the job
// document: a config turned into a Spec and set back through
// Spec.Config is the config itself, so a coordinator's workers see its
// exact sweep shape. Two things differ by design: Net comes back as
// the source of its file, and a zero field over a non-zero flag
// default comes back as that default, since a zero spec field means
// the default.
func TestConfigSpecRoundTrip(t *testing.T) {
	probe, fs, _ := parseFlags(nil)
	*probe = everyFlag
	fs.VisitAll(func(f *flag.Flag) {
		if f.Value.String() == f.DefValue {
			t.Errorf("everyFlag leaves -%s at its default %q", f.Name, f.DefValue)
		}
	})

	cfgs := []Config{
		everyFlag,
		{
			Model: "cache", RunFlags: RunFlags{Horizon: 1234, MaxStarts: 9, Seed: 42}, Reps: 7,
			Axes: Repeated{"DHitRatio=0:1:0.25", "MemoryCycles=1,5,12"},
			MetricFlags: MetricFlags{
				Throughputs:  Repeated{"Issue"},
				Utilizations: Repeated{"Bus_busy", "storing"},
			},
		},
		{
			Net: "../../testdata/pipeline.pn", Model: "pipeline", RunFlags: RunFlags{Horizon: 10_000, Seed: 1}, Reps: 5,
			Axes:        Repeated{"max_type=4,6"},
			MetricFlags: MetricFlags{Throughputs: Repeated{"Issue"}},
		},
		{
			Model: "cache", RunFlags: RunFlags{Horizon: 1234, Seed: 42}, Reps: 7,
			AdaptiveFlags: AdaptiveFlags{Adaptive: "throughput(Issue):0.05", MinReps: 3, MaxReps: 24, Batch: 3},
			Axes:          Repeated{"DHitRatio=0:1:0.25"},
			MetricFlags:   MetricFlags{Throughputs: Repeated{"Issue"}},
		},
		{
			Net: "../../testdata/pipeline.pn", Model: "pipeline", RunFlags: RunFlags{Horizon: 10_000, Seed: 1}, Reps: 1,
			Axes: Repeated{"max_type=4,6"},
			EngineFlags: EngineFlags{
				Engine: "reach", MaxStates: 5000, BoundCap: 64, Explore: 2,
				Bounds: Repeated{"p1", "p2"}, Checks: Repeated{"AG !deadlock"},
			},
		},
		{
			Net: "../../testdata/pipeline.pn", Model: "pipeline", RunFlags: RunFlags{Horizon: 10_000, Seed: 1}, Reps: 1,
			Axes: Repeated{"max_type=4,6"},
			EngineFlags: EngineFlags{
				Engine: "reach", MaxStates: 5000,
				SpillBudget: 1 << 20, SpillDir: "/tmp/spill",
			},
		},
	}
	for _, c := range cfgs {
		spec, lost, err := c.Spec()
		if err != nil {
			t.Fatal(err)
		}
		if c.Net != "" {
			if src, err := os.ReadFile(c.Net); err != nil || spec.Net != string(src) {
				t.Errorf("spec net is not the source of %s (%v)", c.Net, err)
			}
		}
		got, err := spec.Config()
		if err != nil {
			t.Fatalf("spec %+v does not set its flags: %v", spec, err)
		}
		want, fs, _ := parseFlags(nil)
		*want = c
		want.Net = ""
		var wantLost []string
		fs.VisitAll(func(f *flag.Flag) {
			if v := f.Value.String(); (v == "0" || v == "") && v != f.DefValue {
				wantLost = append(wantLost, "-"+f.Name+" "+v)
				f.Value.Set(f.DefValue)
			}
		})
		if !reflect.DeepEqual(got, *want) {
			t.Errorf("round trip changed the config:\n got %+v\nwant %+v", got, *want)
		}
		sort.Strings(lost)
		if !reflect.DeepEqual(lost, wantLost) {
			t.Errorf("Spec reports %q lost, want %q", lost, wantLost)
		}
	}
}

// TestOptionsValidation: metrics are required, unknown models rejected.
func TestOptionsValidation(t *testing.T) {
	c := Config{Model: "cache", Reps: 2, RunFlags: RunFlags{Horizon: 100}}
	if _, _, err := c.Options(); err == nil {
		t.Error("no metrics accepted")
	}
	c.Throughputs = Repeated{"Issue"}
	if opt, name, err := c.Options(); err != nil || name != "pipeline_cached" || opt.Reps != 2 {
		t.Errorf("Options() = %v, %q, %v", opt.Reps, name, err)
	}
	c.Model = "nope"
	if _, _, err := c.Options(); err == nil {
		t.Error("unknown model accepted")
	}
	c.Model = "cache"
	c.Axes = Repeated{"bad axis"}
	if _, _, err := c.Options(); err == nil {
		t.Error("bad axis accepted")
	}
}

// TestFaultFlags: the coordinator's fault-tolerance group parses and
// applies onto dist.Options without touching the grid shape.
func TestFaultFlags(t *testing.T) {
	var f FaultFlags
	fs := flag.NewFlagSet("grid", flag.ContinueOnError)
	f.Register(fs)
	if err := fs.Parse([]string{"-retries", "3", "-backoff", "1500ms", "-speculate"}); err != nil {
		t.Fatal(err)
	}
	var o dist.Options
	f.Apply(&o)
	if o.Retries != 3 || o.Backoff != 1500*time.Millisecond || !o.Speculate {
		t.Errorf("applied options = %+v", o)
	}

	// Defaults: fail-fast, no speculation — the coordinator behaves
	// exactly as before the fault-tolerance layer existed.
	var def FaultFlags
	fs = flag.NewFlagSet("grid", flag.ContinueOnError)
	def.Register(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	var od dist.Options
	def.Apply(&od)
	if od.Retries != 0 || od.Speculate {
		t.Errorf("default fault options = %+v", od)
	}
}
