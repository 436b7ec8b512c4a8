package integration_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// update regenerates the golden fixtures instead of comparing:
//
//	go test ./internal/integration -run Golden -update
var update = flag.Bool("update", false, "rewrite golden files under testdata/golden")

// goldenCompare checks stdout against testdata/golden/<name>, or
// rewrites the fixture under -update. Golden runs pin every source of
// nondeterminism (seeds, -parallel) and the tools keep timing on
// stderr, so the bytes are stable across machines and worker counts.
func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join(repoRoot(t), "testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s (re-run with -update after intended changes)\n--- got ---\n%s\n--- want ---\n%s",
			name, got, want)
	}
}

// mustOutput runs bin and returns stdout, failing with stderr attached.
func mustOutput(t *testing.T, bin string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, stderr.String())
	}
	return out
}

// TestGoldenExp pins the pnut-exp output format: the metric summary
// block and the pooled Figure-5 report for a fixed seed schedule.
func TestGoldenExp(t *testing.T) {
	bins := buildTools(t, "pnut-exp")
	out := mustOutput(t, bins["pnut-exp"],
		"-net", testdataPath(t, "pipeline.pn"), "-horizon", "2000",
		"-seed", "7", "-reps", "4", "-parallel", "2",
		"-throughput", "Issue", "-utilization", "Bus_busy", "-report")
	goldenCompare(t, "pnut-exp.txt", out)
}

// TestGoldenSweep pins both pnut-sweep output formats over a 2x2 cache
// grid, and re-runs the table at a different worker count to hold the
// determinism guarantee at the CLI boundary.
func TestGoldenSweep(t *testing.T) {
	bins := buildTools(t, "pnut-sweep")
	args := func(format, workers string) []string {
		return []string{
			"-model", "cache",
			"-axis", "DHitRatio=0.5,0.9", "-axis", "MemoryCycles=1,5",
			"-horizon", "1000", "-seed", "11", "-reps", "3",
			"-format", format, "-parallel", workers,
			"-throughput", "Issue", "-utilization", "Bus_busy",
		}
	}
	table := mustOutput(t, bins["pnut-sweep"], args("table", "2")...)
	goldenCompare(t, "pnut-sweep.txt", table)
	csv := mustOutput(t, bins["pnut-sweep"], args("csv", "2")...)
	goldenCompare(t, "pnut-sweep.csv", csv)

	// The CSV fixture also holds the determinism guarantee at the CLI
	// boundary: any worker count must reproduce it byte for byte.
	for _, workers := range []string{"1", "4"} {
		rerun := mustOutput(t, bins["pnut-sweep"], args("csv", workers)...)
		if !bytes.Equal(rerun, csv) {
			t.Errorf("-parallel %s changed the CSV output", workers)
		}
	}
}

// TestGoldenSweepEngines pins the exhaustive engines at the CLI
// boundary: the reach and analytic grid tables on the mutex net, plus
// the sim-vs-analytic cross-validation report. The reach CSV is also
// re-run across exploration shard counts, holding the parallel-build
// bit-identity guarantee end to end.
func TestGoldenSweepEngines(t *testing.T) {
	bins := buildTools(t, "pnut-sweep")
	net := testdataPath(t, "mutex.pn")

	reachArgs := func(shards string) []string {
		return []string{
			"-net", net, "-engine", "reach",
			"-bound", "lock", "-ctl", "AG(EF({crit_a == 1}))",
			"-explore-shards", shards, "-format", "csv",
		}
	}
	reach := mustOutput(t, bins["pnut-sweep"], reachArgs("1")...)
	goldenCompare(t, "pnut-sweep-reach.csv", reach)
	for _, shards := range []string{"2", "8"} {
		if rerun := mustOutput(t, bins["pnut-sweep"], reachArgs(shards)...); !bytes.Equal(rerun, reach) {
			t.Errorf("-explore-shards %s changed the reach CSV", shards)
		}
	}

	analytic := mustOutput(t, bins["pnut-sweep"],
		"-net", net, "-engine", "analytic",
		"-throughput", "enter_a", "-utilization", "crit_a", "-format", "csv")
	goldenCompare(t, "pnut-sweep-analytic.csv", analytic)

	cross := mustOutput(t, bins["pnut-sweep"],
		"-net", net, "-engine", "sim+analytic",
		"-throughput", "enter_a", "-utilization", "crit_a",
		"-reps", "3", "-horizon", "5000", "-seed", "11", "-parallel", "2", "-format", "csv")
	goldenCompare(t, "pnut-sweep-cross.csv", cross)
}

// TestGoldenAnalyticCLI pins pnut-analytic's report of every place and
// transition of the paper's pipeline net: the exact steady state of its
// 3568 timed states.
func TestGoldenAnalyticCLI(t *testing.T) {
	bins := buildTools(t, "pnut-analytic")
	out := mustOutput(t, bins["pnut-analytic"], "-net", testdataPath(t, "pipeline.pn"), "-all")
	goldenCompare(t, "pnut-analytic-pipeline.txt", out)
}

// TestGoldenSweepNetVars pins the .pn var-override mode.
func TestGoldenSweepNetVars(t *testing.T) {
	bins := buildTools(t, "pnut-sweep")
	out := mustOutput(t, bins["pnut-sweep"],
		"-net", testdataPath(t, "pipeline_interpreted.pn"),
		"-axis", "max_type=4,6",
		"-horizon", "1000", "-seed", "3", "-reps", "2", "-parallel", "2",
		"-throughput", "Issue")
	goldenCompare(t, "pnut-sweep-vars.txt", out)
}

// TestGoldenTimedReach pins the timed reachability graph at the CLI
// boundary: pnut-reach's timed summary and CTL verdict on the mutex
// net, its DOT rendering with time-advance edges, and the timed summary
// of the paper's pipeline net.
func TestGoldenTimedReach(t *testing.T) {
	bins := buildTools(t, "pnut-reach", "pnut-dot")
	mutex, pipeline := testdataPath(t, "mutex.pn"), testdataPath(t, "pipeline.pn")
	goldenCompare(t, "pnut-reach-timed-mutex.txt", mustOutput(t, bins["pnut-reach"],
		"-net", mutex, "-timed", "-check", "AG({crit_a + crit_b <= 1})"))
	goldenCompare(t, "pnut-dot-timed-mutex.dot", mustOutput(t, bins["pnut-dot"],
		"-net", mutex, "-reach", "-timed"))
	goldenCompare(t, "pnut-reach-timed-pipeline.txt", mustOutput(t, bins["pnut-reach"],
		"-net", pipeline, "-timed"))
}
