package integration_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildTools compiles the cmd/ binaries once into a temp dir.
func buildTools(t *testing.T, names ...string) map[string]string {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping CLI build in -short mode")
	}
	dir := t.TempDir()
	out := make(map[string]string, len(names))
	for _, n := range names {
		bin := filepath.Join(dir, n)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+n)
		cmd.Dir = repoRoot(t)
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", n, err, b)
		}
		out[n] = bin
	}
	return out
}

func repoRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func testdataPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join(repoRoot(t), "testdata", name)
}

// TestCLISimStatPipe runs pnut-sim | pnut-stat exactly as the paper
// pipes its tools.
func TestCLISimStatPipe(t *testing.T) {
	bins := buildTools(t, "pnut-sim", "pnut-stat", "pnut-filter")
	simOut, err := exec.Command(bins["pnut-sim"],
		"-net", testdataPath(t, "pipeline.pn"), "-horizon", "2000", "-seed", "3").Output()
	if err != nil {
		t.Fatalf("pnut-sim: %v", err)
	}
	stat := exec.Command(bins["pnut-stat"])
	stat.Stdin = bytes.NewReader(simOut)
	report, err := stat.Output()
	if err != nil {
		t.Fatalf("pnut-stat: %v", err)
	}
	for _, want := range []string{"RUN STATISTICS", "EVENT STATISTICS", "PLACE STATISTICS", "Issue", "Bus_busy"} {
		if !strings.Contains(string(report), want) {
			t.Errorf("report missing %q", want)
		}
	}
	// And through the filter.
	filt := exec.Command(bins["pnut-filter"], "-places", "Bus_busy,Bus_free")
	filt.Stdin = bytes.NewReader(simOut)
	filtered, err := filt.Output()
	if err != nil {
		t.Fatalf("pnut-filter: %v", err)
	}
	if len(filtered) >= len(simOut) {
		t.Errorf("filter did not shrink the trace: %d -> %d bytes", len(simOut), len(filtered))
	}
	stat2 := exec.Command(bins["pnut-stat"])
	stat2.Stdin = bytes.NewReader(filtered)
	if _, err := stat2.Output(); err != nil {
		t.Fatalf("pnut-stat on filtered trace: %v", err)
	}
}

// TestCLITracerAndQueries drives pnut-tracer with the Figure 7 probes
// and a verification query; a failing query must exit nonzero.
func TestCLITracerAndQueries(t *testing.T) {
	bins := buildTools(t, "pnut-sim", "pnut-tracer")
	simOut, err := exec.Command(bins["pnut-sim"],
		"-net", testdataPath(t, "pipeline.pn"), "-horizon", "2000", "-seed", "3").Output()
	if err != nil {
		t.Fatal(err)
	}
	vcdPath := filepath.Join(t.TempDir(), "out.vcd")
	tr := exec.Command(bins["pnut-tracer"], "-figure7", "-to", "400",
		"-check", "forall s in S [ Bus_busy(s) + Bus_free(s) <= 1 ]",
		"-vcd", vcdPath)
	tr.Stdin = bytes.NewReader(simOut)
	out, err := tr.Output()
	if err != nil {
		t.Fatalf("pnut-tracer: %v", err)
	}
	if !strings.Contains(string(out), "Bus_busy") || !strings.Contains(string(out), "HOLDS") {
		t.Errorf("tracer output unexpected:\n%s", out)
	}
	vcd, err := os.ReadFile(vcdPath)
	if err != nil || !strings.Contains(string(vcd), "$enddefinitions") {
		t.Errorf("VCD not written: %v", err)
	}
	// A query that fails makes the tool exit 1.
	bad := exec.Command(bins["pnut-tracer"], "-check", "forall s in S [ Bus_busy(s) == 0 ]")
	bad.Stdin = bytes.NewReader(simOut)
	if err := bad.Run(); err == nil {
		t.Error("failing query should exit nonzero")
	}
}

// TestCLIReachAndAnalytic checks the state-space tools end to end.
func TestCLIReachAndAnalytic(t *testing.T) {
	bins := buildTools(t, "pnut-reach", "pnut-analytic", "pnut-dot")
	out, err := exec.Command(bins["pnut-reach"],
		"-net", testdataPath(t, "mutex.pn"),
		"-check", "AG({crit_a + crit_b <= 1})",
		"-invariant", "lock=1,crit_a=1,crit_b=1").Output()
	if err != nil {
		t.Fatalf("pnut-reach: %v", err)
	}
	if !strings.Contains(string(out), "HOLDS") || !strings.Contains(string(out), "INVARIANT HOLDS") {
		t.Errorf("reach output:\n%s", out)
	}
	out, err = exec.Command(bins["pnut-analytic"],
		"-net", testdataPath(t, "mutex.pn"), "-place", "crit_a", "-trans", "enter_a").Output()
	if err != nil {
		t.Fatalf("pnut-analytic: %v", err)
	}
	if !strings.Contains(string(out), "avg tokens") || !strings.Contains(string(out), "throughput") {
		t.Errorf("analytic output:\n%s", out)
	}
	out, err = exec.Command(bins["pnut-dot"], "-net", testdataPath(t, "mutex.pn")).Output()
	if err != nil || !strings.Contains(string(out), "digraph") {
		t.Errorf("pnut-dot: %v\n%s", err, out)
	}
	out, err = exec.Command(bins["pnut-dot"], "-net", testdataPath(t, "mutex.pn"), "-reach", "-timed").Output()
	if err != nil || !strings.Contains(string(out), "style=dashed") {
		t.Errorf("pnut-dot -reach -timed: %v\n%s", err, out)
	}
}

// TestCLIReachTimedFlags: -invariant checks the timed graph as it does
// the untimed one; a spill budget spills timed rows and leaves stdout
// byte-identical to the in-memory run; a negative budget is a usage
// error.
func TestCLIReachTimedFlags(t *testing.T) {
	bins := buildTools(t, "pnut-reach")
	mutex := testdataPath(t, "mutex.pn")
	out := string(mustOutput(t, bins["pnut-reach"], "-net", mutex, "-timed",
		"-invariant", "lock=1,crit_a=1,crit_b=1", "-invariant", "lock=1"))
	for _, want := range []string{"INVARIANT HOLDS  lock=1,crit_a=1,crit_b=1 = 1\n", "INVARIANT FAILS  lock=1: "} {
		if !strings.Contains(out, want) {
			t.Errorf("pnut-reach -timed -invariant: output lacks %q:\n%s", want, out)
		}
	}
	pipeline := testdataPath(t, "pipeline.pn")
	mem := mustOutput(t, bins["pnut-reach"], "-net", pipeline, "-timed")
	cmd := exec.Command(bins["pnut-reach"], "-net", pipeline, "-timed", "-spill-budget", "1024", "-spill-dir", t.TempDir())
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	spill, err := cmd.Output()
	if err != nil {
		t.Fatalf("pnut-reach -timed -spill-budget 1024: %v\n%s", err, stderr.String())
	}
	if !bytes.Equal(spill, mem) {
		t.Errorf("spilling timed run differs from the in-memory run:\n%s\nvs\n%s", spill, mem)
	}
	if !regexp.MustCompile(`store spill: \d+ bytes encoded, [1-9]\d* spilled`).MatchString(stderr.String()) {
		t.Errorf("stderr shows no spilled bytes: %q", stderr.String())
	}
	err = exec.Command(bins["pnut-reach"], "-net", mutex, "-timed", "-spill-budget", "-1").Run()
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 2 {
		t.Errorf("pnut-reach -spill-budget -1: err %v, want exit status 2", err)
	}
}

// TestCLIReachBadQueryLeavesNoSpill: a malformed -check or -invariant
// fails the run with exit 1 and leaves the spill directory empty.
func TestCLIReachBadQueryLeavesNoSpill(t *testing.T) {
	bins := buildTools(t, "pnut-reach")
	for _, bad := range [][]string{{"-check", "AG(("}, {"-invariant", "lock"}} {
		dir := t.TempDir()
		err := exec.Command(bins["pnut-reach"], append([]string{"-net", testdataPath(t, "pipeline.pn"),
			"-max-states", "5000", "-spill-budget", "1024", "-spill-dir", dir}, bad...)...).Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("pnut-reach %q: err %v, want exit status 1", bad, err)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("pnut-reach %q left %d files in the spill dir", bad, len(left))
		}
	}
}

// TestCLIAnimator renders a short animation from a stored trace file.
func TestCLIAnimator(t *testing.T) {
	bins := buildTools(t, "pnut-sim", "pnut-anim")
	simOut, err := exec.Command(bins["pnut-sim"],
		"-net", testdataPath(t, "pipeline.pn"), "-horizon", "30").Output()
	if err != nil {
		t.Fatal(err)
	}
	an := exec.Command(bins["pnut-anim"], "-net", testdataPath(t, "pipeline.pn"), "-hide-idle", "-max-frames", "40")
	an.Stdin = bytes.NewReader(simOut)
	out, err := an.Output()
	if err != nil {
		t.Fatalf("pnut-anim: %v", err)
	}
	if !strings.Contains(string(out), "frame 1") || !strings.Contains(string(out), "Start_prefetch") {
		t.Errorf("animation output:\n%.400s", out)
	}
}

// TestCLIExperiment drives the replication driver end to end: pnut-exp
// summarizes metrics across replications, and its output must be
// byte-identical for every -parallel value after the first line (which
// names the worker count).
func TestCLIExperiment(t *testing.T) {
	bins := buildTools(t, "pnut-exp")
	var outs [][]byte
	for _, workers := range []string{"1", "5"} {
		out, err := exec.Command(bins["pnut-exp"],
			"-net", testdataPath(t, "pipeline.pn"), "-horizon", "2000", "-seed", "42", "-reps", "6",
			"-throughput", "Issue", "-utilization", "Bus_busy", "-report", "-parallel", workers).Output()
		if err != nil {
			t.Fatalf("pnut-exp -parallel %s: %v", workers, err)
		}
		outs = append(outs, out)
	}
	for _, want := range []string{"6 replications", "throughput(Issue)", "utilization(Bus_busy)", "95% CI", "PLACE STATISTICS", "RUN STATISTICS"} {
		if !strings.Contains(string(outs[0]), want) {
			t.Errorf("pnut-exp output missing %q:\n%s", want, outs[0])
		}
	}
	_, rest1, _ := bytes.Cut(outs[0], []byte("\n"))
	_, rest5, _ := bytes.Cut(outs[1], []byte("\n"))
	if !bytes.Equal(rest1, rest5) {
		t.Error("pnut-exp output differs between -parallel 1 and -parallel 5")
	}
}
