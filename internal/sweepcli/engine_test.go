package sweepcli

import (
	"context"
	"strings"
	"testing"

	"repro/internal/experiment"
	"repro/internal/reach"
)

// TestEngineOptions: the engine switch shapes the sweep — metric set,
// backend, collapsed replication — and rejects cross-engine flag
// combinations with named errors.
func TestEngineOptions(t *testing.T) {
	c := parseConfig(t, "-model", "cache", "-axis", "DHitRatio=0,1",
		"-engine", "reach", "-bound", "Bus_busy", "-ctl", "EF(deadlock)")
	opt, _, err := c.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Reps != 1 {
		t.Errorf("reach Reps = %d, want 1 (deterministic cells collapse)", opt.Reps)
	}
	if opt.Backend == nil || opt.Backend.Engine() != "reach" {
		t.Errorf("backend = %v, want the reach engine", opt.Backend)
	}
	want := []string{"states", "deadlocks", "deadtrans", "truncated", "bound(Bus_busy)", "ctl(EF(deadlock))"}
	for i, m := range opt.Metrics {
		if i >= len(want) || m.Name != want[i] {
			t.Fatalf("reach metrics = %v, want %v", opt.Metrics, want)
		}
	}

	c = parseConfig(t, "-model", "cache", "-axis", "DHitRatio=0,1", "-engine", "analytic", "-throughput", "Issue")
	opt, _, err = c.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Reps != 1 || opt.Backend == nil || opt.Backend.Engine() != "analytic" {
		t.Errorf("analytic options wrong: reps=%d backend=%v", opt.Reps, opt.Backend)
	}

	for _, bad := range [][]string{
		{"-engine", "reach", "-throughput", "Issue"},
		{"-engine", "reach", "-adaptive", "states:0.05"},
		{"-engine", "analytic"},
		{"-engine", "analytic", "-throughput", "Issue", "-adaptive", "throughput(Issue):0.05"},
		{"-engine", "analytic", "-throughput", "Issue", "-bound", "p"},
		{"-engine", "frob", "-throughput", "Issue"},
		{"-bound", "p", "-throughput", "Issue"},
		{"-engine", "sim+analytic", "-throughput", "Issue"},
	} {
		args := append([]string{"-model", "cache", "-axis", "DHitRatio=0,1"}, bad...)
		if _, _, err := parseConfig(t, args...).Options(); err == nil {
			t.Errorf("flags %v produced options", bad)
		}
	}
}

// TestSpecEngines: the declarative surface resolves engine specs to
// the same grid the flags do, and rejects the CLI-only mode.
func TestSpecEngines(t *testing.T) {
	spec := Spec{
		Model: "cache", Axes: []string{"DHitRatio=0,1"},
		Engine: "reach", MaxStates: 5000, BoundCap: 64,
		Bound: []string{"Bus_busy"}, Ctl: []string{"EF(deadlock)"},
	}
	got, _, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := parseConfig(t, "-model", "cache", "-axis", "DHitRatio=0,1",
		"-engine", "reach", "-max-states", "5000", "-bound-cap", "64",
		"-bound", "Bus_busy", "-ctl", "EF(deadlock)").Options()
	if err != nil {
		t.Fatal(err)
	}
	if !sameGrid(t, got, want) {
		t.Fatalf("spec engine grid differs from flag grid:\nspec: %+v\ncli:  %+v",
			experiment.MetaOf(got, ""), experiment.MetaOf(want, ""))
	}
	gm := experiment.MetaOf(got, "")
	if gm.Engine != "reach" || gm.MaxStates != 5000 || gm.BoundCap != 64 {
		t.Errorf("resolved meta does not pin the engine: %+v", gm)
	}

	bad := Spec{Model: "cache", Engine: "sim+analytic", Throughput: []string{"Issue"}}
	if _, _, err := bad.Resolve(); err == nil {
		t.Error("spec accepted the CLI-only sim+analytic mode")
	}
}

// TestCrossOptionsAndValidate: the sim+analytic mode derives two
// aligned sweeps from one config and the diff agrees on a net whose
// exact solution the simulator tracks.
func TestCrossOptionsAndValidate(t *testing.T) {
	c := parseConfig(t, "-net", "../../testdata/mutex.pn", "-engine", "sim+analytic",
		"-throughput", "enter_a", "-utilization", "crit_a",
		"-reps", "4", "-horizon", "5000", "-seed", "3")
	simOpt, anaOpt, name, err := c.CrossOptions()
	if err != nil {
		t.Fatal(err)
	}
	if name != "mutex" {
		t.Errorf("model name = %q, want mutex", name)
	}
	if simOpt.Backend != nil {
		t.Errorf("sim half carries backend %v", simOpt.Backend)
	}
	if anaOpt.Backend == nil || anaOpt.Backend.Engine() != "analytic" || anaOpt.Reps != 1 {
		t.Errorf("analytic half wrong: backend=%v reps=%d", anaOpt.Backend, anaOpt.Reps)
	}
	simRes, err := experiment.Sweep(context.Background(), simOpt)
	if err != nil {
		t.Fatal(err)
	}
	anaRes, err := experiment.Sweep(context.Background(), anaOpt)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CrossValidate(simRes, anaRes, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Disagreements != 0 {
		var b strings.Builder
		rep.WriteTable(&b)
		t.Errorf("mutex sim strays from exact values beyond 5%%:\n%s", b.String())
	}
	// A zero tolerance flags every cell with any sampling error at all.
	tight, err := CrossValidate(simRes, anaRes, 0)
	if err != nil {
		t.Fatal(err)
	}
	anyErr := false
	for _, row := range tight.Rows {
		for _, col := range row.Cols {
			if col.RelErr > 1e-9 {
				anyErr = true
			}
		}
	}
	if anyErr && tight.Disagreements == 0 {
		t.Error("zero tolerance flagged nothing despite nonzero relative error")
	}

	// The CSV encoding is deterministic: equal reports, equal bytes.
	var a, b strings.Builder
	if err := rep.WriteCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("cross-validation CSV is not deterministic")
	}

	// An adaptive config keeps its stopping rule on the sim half only.
	c = parseConfig(t, "-net", "../../testdata/mutex.pn", "-engine", "sim+analytic",
		"-throughput", "enter_a", "-adaptive", "throughput(enter_a):0.05", "-horizon", "2000")
	simOpt, anaOpt, _, err = c.CrossOptions()
	if err != nil {
		t.Fatal(err)
	}
	if simOpt.Adaptive == nil {
		t.Error("sim half lost the adaptive rule")
	}
	if anaOpt.Adaptive != nil {
		t.Error("analytic half kept the adaptive rule")
	}
}

// TestEngineStoreFlags: the spill group flows flags -> options ->
// backend for both exhaustive engines, and rejects the sim engine and
// a negative budget at parse time on both surfaces.
func TestEngineStoreFlags(t *testing.T) {
	for _, engine := range [][]string{{"reach"}, {"analytic", "-throughput", "Issue"}} {
		c := parseConfig(t, append([]string{"-model", "cache", "-axis", "DHitRatio=0,1",
			"-spill-budget", "4096", "-spill-dir", "/tmp/x", "-engine"}, engine...)...)
		opt, _, err := c.Options()
		if err != nil {
			t.Fatal(err)
		}
		var got reach.Options
		switch b := opt.Backend.(type) {
		case experiment.ReachBackend:
			got = b.Opt
		case experiment.AnalyticBackend:
			got = b.Opt
		}
		if got.SpillBudget != 4096 || got.SpillDir != "/tmp/x" {
			t.Errorf("-engine %s: backend options lost the spill group: %+v", engine[0], opt.Backend)
		}
	}

	for _, bad := range [][]string{
		{"-throughput", "Issue", "-spill-budget", "512"}, // sim engine
		{"-throughput", "Issue", "-spill-dir", "/tmp/x"}, // sim engine
		{"-engine", "reach", "-spill-budget", "-1"},
		{"-engine", "analytic", "-throughput", "Issue", "-spill-budget", "-1"},
	} {
		args := append([]string{"-model", "cache", "-axis", "DHitRatio=0,1"}, bad...)
		c, _, err := parseFlags(args)
		if err == nil {
			_, _, err = c.Options()
		}
		if err == nil {
			t.Errorf("flags %v produced options", bad)
		}
	}

	// The declarative surface fails with the flag's own error.
	badSpec := Spec{Model: "cache", Engine: "reach", SpillBudget: -1}
	_, _, err := badSpec.Resolve()
	if want := `spec: invalid value "-1" for flag -spill-budget: must be at least 0`; err == nil || err.Error() != want {
		t.Errorf("negative spill budget: err %v, want %s", err, want)
	}
}
