package sweepcli

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// specFlags calls fn with each Spec field that names a flag in its
// tag: the flag's name and the field's value.
func specFlags(s *Spec, fn func(name string, v reflect.Value)) {
	v := reflect.ValueOf(s).Elem()
	for i := 0; i < v.NumField(); i++ {
		if name := v.Type().Field(i).Tag.Get("flag"); name != "" {
			fn(name, v.Field(i))
		}
	}
}

// TestSpecTagsCoverFlags: the flags Config.Register installs are
// exactly the Spec's flag tags plus -net, whose spec form is inline
// source, so a sweep flag the JSON surface lacks fails here.
func TestSpecTagsCoverFlags(t *testing.T) {
	_, fs, _ := parseFlags(nil)
	var registered []string
	fs.VisitAll(func(f *flag.Flag) { registered = append(registered, f.Name) })
	tagged := []string{"net"}
	specFlags(&Spec{}, func(name string, _ reflect.Value) { tagged = append(tagged, name) })
	sort.Strings(tagged)
	if !reflect.DeepEqual(registered, tagged) {
		t.Fatalf("Register installs %q, the Spec tags plus net name %q", registered, tagged)
	}
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
// job body, through Spec.Resolve and Spec.Config. Nothing may panic.
// When Config succeeds, every tagged flag must read back the field's
// value when the field is set and the flag's default when it is not,
// and the Config must come back unchanged through Config.Spec, the job
// document pnut-grid ships to its workers.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil {
			return
		}
		s.Resolve() // must not panic; it fails whenever Config does
		c, err := s.Config()
		if err != nil {
			return
		}
		bound, fs, _ := parseFlags(nil)
		*bound = c
		specFlags(&s, func(name string, v reflect.Value) {
			want := fs.Lookup(name).DefValue
			if !v.IsZero() {
				want = fmt.Sprint(v.Interface())
				if l, ok := v.Interface().([]string); ok {
					want = strings.Join(l, ", ")
				}
			}
			if got := fs.Lookup(name).Value.String(); got != want {
				t.Fatalf("spec %+v sets -%s to %q, want %q", s, name, got, want)
			}
		})
		job, lost, err := c.Spec()
		if err != nil || lost != nil {
			t.Fatalf("config %+v: job spec lost %q, %v", c, lost, err)
		}
		w, err := job.Config()
		if err != nil {
			t.Fatalf("job spec %+v does not set its flags: %v", job, err)
		}
		if !reflect.DeepEqual(w, c) {
			t.Fatalf("job spec %+v sets\n%+v\nwant\n%+v", job, w, c)
		}
	})
}
