package integration_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/sweepcli"
)

// gridArgs is the reference sweep the golden fixtures pin (see
// TestGoldenSweep), minus the tool-specific flags.
func gridArgs(format string) []string {
	return []string{
		"-model", "cache",
		"-axis", "DHitRatio=0.5,0.9", "-axis", "MemoryCycles=1,5",
		"-horizon", "1000", "-seed", "11", "-reps", "3",
		"-format", format,
		"-throughput", "Issue", "-utilization", "Bus_busy",
	}
}

// TestGoldenGrid holds the distributed driver to the in-process golden
// files: pnut-grid across 1, 2 and 4 worker processes must reproduce
// pnut-sweep's stdout byte for byte, in both output formats.
func TestGoldenGrid(t *testing.T) {
	bins := buildTools(t, "pnut-sweep", "pnut-grid")
	for _, procs := range []string{"1", "2", "4"} {
		csv := mustOutput(t, bins["pnut-grid"], append(gridArgs("csv"),
			"-worker-cmd", bins["pnut-sweep"], "-procs", procs)...)
		goldenCompare(t, "pnut-sweep.csv", csv)
	}
	table := mustOutput(t, bins["pnut-grid"], append(gridArgs("table"),
		"-worker-cmd", bins["pnut-sweep"], "-procs", "2")...)
	goldenCompare(t, "pnut-sweep.txt", table)
}

// TestWorkerReportsPoolSize: a worker's summary line names the
// goroutines its span ran on, the default pool capped at the span's
// cells, not the -parallel value the spec left at zero.
func TestWorkerReportsPoolSize(t *testing.T) {
	bins := buildTools(t, "pnut-sweep")
	cmd := exec.Command(bins["pnut-sweep"], "-spec", "-", "-cells", "0:4", "-emit", "cells")
	cmd.Stdin = strings.NewReader(`{"model":"cache","reps":4,"horizon":500,"throughput":["Issue"]}`)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if _, err := cmd.Output(); err != nil {
		t.Fatalf("pnut-sweep worker: %v\n%s", err, stderr.String())
	}
	m := regexp.MustCompile(`cells 0:4 of 4, workers=(\d+) `).FindStringSubmatch(stderr.String())
	if m == nil {
		t.Fatalf("no worker summary line in:\n%s", stderr.String())
	}
	if w, _ := strconv.Atoi(m[1]); w < 1 || w > 4 {
		t.Errorf("worker reports workers=%d for 4 cells:\n%s", w, stderr.String())
	}
}

// TestGridKillWorkerResume is the process-level resume contract: a
// worker that dies mid-shard fails the run but leaves its completed
// cells in the journal; re-running with a healthy worker re-dispatches
// only the missing cells and reproduces the golden output exactly.
func TestGridKillWorkerResume(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("flaky-worker shim is a shell script")
	}
	bins := buildTools(t, "pnut-sweep", "pnut-grid")
	dir := t.TempDir()
	journal := filepath.Join(dir, "run.jsonl")

	// A worker that, when handed shard 6:12, silently runs only 6:9 and
	// then dies — three journaled cells, three lost.
	shim := filepath.Join(dir, "flaky-worker.sh")
	script := fmt.Sprintf(`#!/bin/sh
args=""
die=0
for a in "$@"; do
  if [ "$a" = "6:12" ]; then a="6:9"; die=7; fi
  args="$args $a"
done
%q $args
exit $die
`, bins["pnut-sweep"])
	if err := os.WriteFile(shim, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}

	run := func(worker string) (string, string, error) {
		cmd := exec.Command(bins["pnut-grid"], append(gridArgs("csv"),
			"-worker-cmd", worker, "-procs", "2", "-journal", journal, "-v")...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		err := cmd.Run()
		return stdout.String(), stderr.String(), err
	}

	if _, stderr, err := run(shim); err == nil {
		t.Fatalf("sabotaged run succeeded:\n%s", stderr)
	}
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("failed run left no journal: %v", err)
	}

	stdout, stderr, err := run(bins["pnut-sweep"])
	if err != nil {
		t.Fatalf("resume failed: %v\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "resumed 9/12 cells") {
		t.Errorf("resume did not pick up the journaled cells:\n%s", stderr)
	}
	if !strings.Contains(stderr, "dispatching 3 cells") {
		t.Errorf("resume did not restrict dispatch to the missing cells:\n%s", stderr)
	}
	goldenCompare(t, "pnut-sweep.csv", []byte(stdout))

	// A third run has a complete journal: nothing dispatches, output holds.
	stdout, stderr, err = run(bins["pnut-sweep"])
	if err != nil {
		t.Fatalf("replay failed: %v\n%s", err, stderr)
	}
	if !strings.Contains(stderr, "nothing to dispatch") {
		t.Errorf("complete journal still dispatched work:\n%s", stderr)
	}
	goldenCompare(t, "pnut-sweep.csv", []byte(stdout))
}

// adaptiveArgs is the reference adaptive sweep for the process-level
// identity tests: a mixed-variance cache grid with a 5% relative-CI
// target, so points stop at different replication counts.
func adaptiveArgs() []string {
	return []string{
		"-model", "cache",
		"-axis", "DHitRatio=0,0.5,0.9,1",
		"-horizon", "2000", "-seed", "7",
		"-adaptive", "throughput(Issue):0.05",
		"-min-reps", "3", "-max-reps", "32", "-batch", "2",
		"-format", "csv", "-throughput", "Issue",
	}
}

// TestAdaptiveGridMatchesSweep is the adaptive identity at process
// level: the CSV (including the per-point "n" column) of a 1-worker
// in-process pnut-sweep, a GOMAXPROCS pnut-sweep, and pnut-grid across
// 2 and 3 worker processes must all be byte-identical — the stopping
// decisions replay identically everywhere. A journaled re-run replays
// the rounds without dispatching and still matches.
func TestAdaptiveGridMatchesSweep(t *testing.T) {
	bins := buildTools(t, "pnut-sweep", "pnut-grid")
	want := mustOutput(t, bins["pnut-sweep"], append(adaptiveArgs(), "-parallel", "1")...)
	if !strings.Contains(strings.SplitN(string(want), "\n", 2)[0], ",n,") {
		t.Fatalf("adaptive CSV header lacks the n column:\n%s", want)
	}
	if got := mustOutput(t, bins["pnut-sweep"], adaptiveArgs()...); !bytes.Equal(got, want) {
		t.Errorf("parallel pnut-sweep differs from 1-worker run:\n%s", got)
	}
	journal := filepath.Join(t.TempDir(), "adaptive.jsonl")
	for _, procs := range []string{"2", "3"} {
		got := mustOutput(t, bins["pnut-grid"], append(adaptiveArgs(),
			"-worker-cmd", bins["pnut-sweep"], "-procs", procs, "-journal", journal)...)
		if !bytes.Equal(got, want) {
			t.Errorf("pnut-grid -procs %s differs from pnut-sweep:\n%s", procs, got)
		}
	}
	// The journal is complete after the first grid run; a worker command
	// that always fails proves the replay dispatches nothing.
	if runtime.GOOS != "windows" {
		got := mustOutput(t, bins["pnut-grid"], append(adaptiveArgs(),
			"-worker-cmd", "/bin/false", "-procs", "2", "-journal", journal)...)
		if !bytes.Equal(got, want) {
			t.Errorf("adaptive journal replay differs from pnut-sweep:\n%s", got)
		}
	}
}

// TestGridRejectsDriftedJournal: changing the sweep under a journal is
// an error, not silent corruption.
func TestGridRejectsDriftedJournal(t *testing.T) {
	bins := buildTools(t, "pnut-sweep", "pnut-grid")
	journal := filepath.Join(t.TempDir(), "run.jsonl")
	mustOutput(t, bins["pnut-grid"], append(gridArgs("csv"),
		"-worker-cmd", bins["pnut-sweep"], "-procs", "2", "-journal", journal)...)

	drifted := append(gridArgs("csv"), "-worker-cmd", bins["pnut-sweep"], "-procs", "2", "-journal", journal)
	drifted[9] = "999" // a different base seed
	cmd := exec.Command(bins["pnut-grid"], drifted...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil || !strings.Contains(stderr.String(), "different sweep") {
		t.Errorf("drifted journal: err=%v stderr=%s", err, stderr.String())
	}
}

// TestGridRetrySurvivesWorkerDeath is the process-level retry
// contract: with a retry budget, the same mid-shard worker death that
// TestGridKillWorkerResume needs two runs to absorb completes in a
// single pnut-grid invocation — the salvaged cells are re-dispatched
// in-run and the output still matches the golden file byte for byte.
func TestGridRetrySurvivesWorkerDeath(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("flaky-worker shim is a shell script")
	}
	bins := buildTools(t, "pnut-sweep", "pnut-grid")
	dir := t.TempDir()

	// Same sabotage as the resume test: shard 6:12 silently runs only
	// 6:9 and dies. The salvaged retry span 9:12 passes through intact.
	shim := filepath.Join(dir, "flaky-worker.sh")
	script := fmt.Sprintf(`#!/bin/sh
args=""
die=0
for a in "$@"; do
  if [ "$a" = "6:12" ]; then a="6:9"; die=7; fi
  args="$args $a"
done
%q $args
exit $die
`, bins["pnut-sweep"])
	if err := os.WriteFile(shim, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bins["pnut-grid"], append(gridArgs("csv"),
		"-worker-cmd", shim, "-procs", "2", "-retries", "1", "-backoff", "10ms", "-v")...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("run with retry budget failed: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "retrying") {
		t.Errorf("retry never happened (shim did not die?):\n%s", stderr.String())
	}
	goldenCompare(t, "pnut-sweep.csv", stdout.Bytes())
}

// TestAdaptiveGridRetryMatchesSweep extends the retry contract to
// adaptive sweeps: a worker whose first exec dies outright is absorbed
// by the round's retry budget, and the single-invocation output is
// byte-identical to the in-process pnut-sweep.
func TestAdaptiveGridRetryMatchesSweep(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("flaky-worker shim is a shell script")
	}
	bins := buildTools(t, "pnut-sweep", "pnut-grid")
	want := mustOutput(t, bins["pnut-sweep"], append(adaptiveArgs(), "-parallel", "1")...)

	dir := t.TempDir()
	marker := filepath.Join(dir, "died-once")
	shim := filepath.Join(dir, "flaky-worker.sh")
	script := fmt.Sprintf(`#!/bin/sh
if [ ! -f %q ]; then : > %q; exit 3; fi
exec %q "$@"
`, marker, marker, bins["pnut-sweep"])
	if err := os.WriteFile(shim, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(bins["pnut-grid"], append(adaptiveArgs(),
		"-worker-cmd", shim, "-procs", "2", "-retries", "2", "-backoff", "10ms", "-v")...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("adaptive run with retry budget failed: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "retrying") {
		t.Errorf("retry never happened (shim did not die?):\n%s", stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("retried adaptive pnut-grid differs from pnut-sweep:\n%s", stdout.String())
	}
}

// TestServerDistributedMatchesInProcess holds pnut-server's
// distributed path to its in-process one: a server that fans jobs out
// over two pnut-sweep worker processes must serve the very bytes of a
// server that runs them itself — for an adaptive spec whose rule has
// shell metacharacters, an inline-net reach spec and a spec that
// leaves the goroutine count to the server.
func TestServerDistributedMatchesInProcess(t *testing.T) {
	bins := buildTools(t, "pnut-sweep")
	mutex, err := os.ReadFile(testdataPath(t, "mutex.pn"))
	if err != nil {
		t.Fatal(err)
	}
	specs := []sweepcli.Spec{
		{Model: "cache", Axes: []string{"DHitRatio=0.5,0.9"}, Seed: 5, Horizon: 600,
			Adaptive: "throughput(Issue):0.05", MinReps: 3, MaxReps: 9, Batch: 2,
			Throughput: []string{"Issue"}, Parallel: 2},
		{Net: string(mutex), Engine: "reach", Bound: []string{"lock"},
			Ctl: []string{"AG(EF({crit_a == 1}))"}, Format: "table"},
		{Model: "cache", Axes: []string{"MemoryCycles=1,5"}, Reps: 3, Seed: 11, Horizon: 800,
			Throughput: []string{"Issue"}, Utilization: []string{"Bus_busy"}, Format: "json"},
	}
	serve := func(workerCmd string) []string {
		s := server.New(server.Config{Workers: 1, WorkerCmd: workerCmd, Procs: 2})
		s.Start()
		ts := httptest.NewServer(s.Handler())
		defer func() {
			ts.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Drain(ctx)
		}()
		var bodies []string
		for _, spec := range specs {
			blob, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(blob))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("worker cmd %q, spec %s: status %d, %v\n%s", workerCmd, blob, resp.StatusCode, err, body)
			}
			bodies = append(bodies, string(body))
		}
		return bodies
	}
	want, got := serve(""), serve(bins["pnut-sweep"])
	for i := range specs {
		if got[i] != want[i] {
			t.Errorf("spec %d: distributed body\n%s\nin-process body\n%s", i, got[i], want[i])
		}
	}
}

// TestRemoteShellWorkers holds the distributed paths to workers that
// run the way remote ones do. A remote shell such as ssh joins its
// arguments into one command line and re-parses it, and it starts the
// worker in another directory. So no job value may travel as a worker
// argument, and no local file path may travel at all.
func TestRemoteShellWorkers(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("worker wrappers are shell scripts")
	}
	bins := buildTools(t, "pnut-sweep", "pnut-grid")
	dir := t.TempDir()
	shim := func(name, script string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte("#!/bin/sh\n"+script+"\n"), 0o755); err != nil {
			t.Fatal(err)
		}
		return path
	}
	remoteShell := shim("remote-shell.sh", `exec sh -c "$*"`) + " " + bins["pnut-sweep"]
	otherDir := shim("cd-root.sh", `cd / && exec "$@"`) + " " + bins["pnut-sweep"]

	t.Run("adaptive rule through a shell", func(t *testing.T) {
		want := mustOutput(t, bins["pnut-sweep"], append(adaptiveArgs(), "-parallel", "1")...)
		got := mustOutput(t, bins["pnut-grid"], append(adaptiveArgs(),
			"-worker-cmd", remoteShell, "-procs", "2")...)
		if !bytes.Equal(got, want) {
			t.Errorf("pnut-grid through a remote shell differs from pnut-sweep:\n%s", got)
		}
	})

	t.Run("relative net in another directory", func(t *testing.T) {
		cmd := exec.Command(bins["pnut-grid"], "-net", "mutex.pn", "-engine", "reach",
			"-bound", "lock", "-ctl", "AG(EF({crit_a == 1}))", "-format", "csv",
			"-worker-cmd", otherDir, "-procs", "2")
		cmd.Dir = testdataPath(t, "")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("pnut-grid -net mutex.pn with a cd / worker: %v\n%s", err, stderr.String())
		}
		goldenCompare(t, "pnut-sweep-reach.csv", out)
	})

	t.Run("server through a shell", func(t *testing.T) {
		mutex, err := os.ReadFile(testdataPath(t, "mutex.pn"))
		if err != nil {
			t.Fatal(err)
		}
		specs := []sweepcli.Spec{
			{Model: "cache", Axes: []string{"DHitRatio=0.5,0.9"}, Seed: 5, Horizon: 600,
				Adaptive: "throughput(Issue):0.05", MinReps: 3, MaxReps: 9, Batch: 2,
				Throughput: []string{"Issue"}, Parallel: 2},
			{Net: string(mutex), Engine: "reach", Bound: []string{"lock"},
				Ctl: []string{"AG(EF({crit_a == 1}))"}, Format: "table"},
			{Model: "cache", Axes: []string{"MemoryCycles=1,5"}, Reps: 3, Seed: 11, Horizon: 800,
				Throughput: []string{"Issue"}, Utilization: []string{"Bus_busy"}, Format: "json"},
		}
		want, got := serveSpecs(t, "", specs), serveSpecs(t, remoteShell, specs)
		for i := range specs {
			if got[i] != want[i] {
				t.Errorf("spec %d: body through a remote shell\n%s\nin-process body\n%s", i, got[i], want[i])
			}
		}
	})
}

// serveSpecs submits each spec with ?wait=1 to a fresh server whose
// WorkerCmd is workerCmd (empty: in-process) and returns the bodies.
func serveSpecs(t *testing.T, workerCmd string, specs []sweepcli.Spec) []string {
	t.Helper()
	s := server.New(server.Config{Workers: 1, WorkerCmd: workerCmd, Procs: 2})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()
	var bodies []string
	for _, spec := range specs {
		blob, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(blob))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("worker cmd %q, spec %s: status %d, %v\n%s", workerCmd, blob, resp.StatusCode, err, body)
		}
		bodies = append(bodies, string(body))
	}
	return bodies
}
