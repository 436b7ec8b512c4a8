package sweepcli

import (
	"encoding/json"
	"flag"
	"io"
	"reflect"
	"testing"
)

// configSpec projects every spec-visible field of a parsed Config into
// the Spec form, whatever the engine.
func configSpec(c *Config) Spec {
	return Spec{
		Model:         c.Model,
		Axes:          c.Axes,
		Reps:          c.Reps,
		Seed:          c.Seed,
		Horizon:       c.Horizon,
		MaxStarts:     c.MaxStarts,
		Adaptive:      c.Adaptive,
		MinReps:       c.MinReps,
		MaxReps:       c.MaxReps,
		Batch:         c.Batch,
		Throughput:    c.Throughputs,
		Utilization:   c.Utilizations,
		Engine:        c.Engine,
		MaxStates:     c.EngineFlags.MaxStates,
		BoundCap:      c.BoundCap,
		ExploreShards: c.Explore,
		Bound:         c.Bounds,
		Ctl:           c.Checks,
		SpillBudget:   c.SpillBudget,
		SpillDir:      c.SpillDir,
		Parallel:      c.Parallel,
	}
}

// nilEmpty maps an empty list to nil: a spec's [] and an unset flag
// both mean "none".
func nilEmpty(s []string) []string {
	if len(s) == 0 {
		return nil
	}
	return s
}

// specWant is the Config view a spec's flag list must parse to: the
// flag defaults, overridden by every field the spec sets and Flags
// renders.
func specWant(s *Spec, def Spec) Spec {
	w := def
	if s.Net == "" && s.Model != "" {
		w.Model = s.Model
	}
	set := func(dst *int64, v int64) {
		if v != 0 {
			*dst = v
		}
	}
	seti := func(dst *int, v int) {
		if v != 0 {
			*dst = v
		}
	}
	sets := func(dst *string, v string) {
		if v != "" {
			*dst = v
		}
	}
	w.Axes = nilEmpty(s.Axes)
	seti(&w.Reps, s.Reps)
	set(&w.Seed, s.Seed)
	set(&w.Horizon, s.Horizon)
	set(&w.MaxStarts, s.MaxStarts)
	if s.Adaptive != "" {
		w.Adaptive = s.Adaptive
		seti(&w.MinReps, s.MinReps)
		seti(&w.MaxReps, s.MaxReps)
		seti(&w.Batch, s.Batch)
	}
	w.Throughput, w.Utilization = nilEmpty(s.Throughput), nilEmpty(s.Utilization)
	sets(&w.Engine, s.Engine)
	seti(&w.MaxStates, s.MaxStates)
	seti(&w.BoundCap, s.BoundCap)
	seti(&w.ExploreShards, s.ExploreShards)
	w.Bound, w.Ctl = nilEmpty(s.Bound), nilEmpty(s.Ctl)
	set(&w.SpillBudget, s.SpillBudget)
	sets(&w.SpillDir, s.SpillDir)
	seti(&w.Parallel, s.Parallel)
	return w
}

// parseFlags parses args through Config.Register on a fresh FlagSet.
func parseFlags(args []string) (*Config, *flag.FlagSet, error) {
	fs := flag.NewFlagSet("fuzz", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	var c Config
	c.Register(fs)
	err := fs.Parse(args)
	return &c, fs, err
}

// FuzzSpec takes job specs, decoded from JSON as the server decodes a
// job body, through Spec.Flags, Config.Register and Spec.Resolve.
// Nothing may panic. A flag list that parses must bind every value to
// its own flag, so the parsed Config holds exactly the fields the spec
// sets and the flag defaults elsewhere; a list that does not parse
// must make Resolve fail. A parsed Config must come back unchanged
// through WorkerArgs, the flag list pnut-grid ships to its workers.
func FuzzSpec(f *testing.F) {
	for _, s := range []string{
		`{}`,
		`{"throughput":["Issue"]}`,
		`{"model":"cache","axes":["DHitRatio=0:1:0.5","MemoryCycles=1,5"],"seed":42,"horizon":2500,"maxStarts":900,"adaptive":"throughput(Issue):0.05","minReps":3,"maxReps":16,"batch":2,"throughput":["Issue"],"utilization":["Bus_busy"]}`,
		`{"model":"cache","axes":["DHitRatio=0.5,0.9","MemoryCycles=1,5"],"reps":3,"seed":11,"horizon":1000,"format":"csv","throughput":["Issue"],"utilization":["Bus_busy"]}`,
		`{"net":"net two_phase\nvar delay 3\nplace ready init 1\nplace busy\ntrans start\n  in ready\n  out busy\n  enabling expr{ delay }\ntrans finish\n  in busy\n  out ready\n  firing 2\n","axes":["delay=1,2"],"reps":2,"horizon":200,"throughput":["finish"]}`,
		`{"net":"net m\nplace lock init 1\nplace crit\ntrans enter\n  in lock\n  out crit\ntrans leave\n  in crit\n  out lock\n","engine":"reach","bound":["lock"],"ctl":["AG(EF({crit == 1}))"],"maxStates":500,"boundCap":9,"exploreShards":2,"spillBudget":1024}`,
		`{"engine":"analytic","throughput":["Issue"],"parallel":2}`,
		`{"model":"-reps","seed":-5,"axes":["-x"],"throughput":["-horizon"]}`,
		`{"engine":"sim+analytic","throughput":["Issue"]}`,
		`{"reps":-1,"throughput":["Issue"]}`,
		`{"model":"cache","axes":["DHitRatio=0.5,NaN"],"throughput":["Issue"]}`,
		`{"model":"cache","axes":["DHitRatio=0:999999:1,0:999999:1,0:999999:1,0:999999:1,0:999999:1,0:999999:1,0:999999:1,0:999999:1"],"throughput":["Issue"]}`,
		`{"model":"cache","axes":["DHitRatio=0:65535:1","IHitRatio=0:65535:1","MemoryCycles=0:65535:1","HitCycles=0:65535:1"],"throughput":["Issue"]}`,
	} {
		f.Add([]byte(s))
	}
	def, _, err := parseFlags(nil)
	if err != nil {
		f.Fatal(err)
	}
	defaults := configSpec(def)
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		_, _, rerr := s.Resolve()
		c, fs, err := parseFlags(s.Flags())
		if err != nil {
			if rerr == nil {
				t.Fatalf("flags %q do not parse (%v), but the spec resolved", s.Flags(), err)
			}
			return
		}
		if fs.NArg() != 0 {
			t.Fatalf("flags %q left arguments %q unparsed", s.Flags(), fs.Args())
		}
		got, want := configSpec(c), specWant(&s, defaults)
		for _, l := range []*[]string{&got.Axes, &got.Throughput, &got.Utilization, &got.Bound, &got.Ctl} {
			*l = nilEmpty(*l)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("flags %q parse to\n%+v\nwant\n%+v", s.Flags(), got, want)
		}
		w, _, err := parseFlags(c.WorkerArgs(c.Parallel))
		if err != nil {
			t.Fatalf("worker args %q do not parse: %v", c.WorkerArgs(c.Parallel), err)
		}
		if !reflect.DeepEqual(w, c) {
			t.Fatalf("worker args %q parse to\n%+v\nwant\n%+v", c.WorkerArgs(c.Parallel), w, c)
		}
	})
}
