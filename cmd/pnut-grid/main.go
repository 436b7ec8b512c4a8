// pnut-grid is the distributed sweep coordinator: it executes the same
// parameter grid as pnut-sweep, but across worker OS processes instead
// of goroutines — and produces bit-for-bit the same stdout.
//
// The grid's (point, replication) cells are partitioned into -procs
// contiguous point-major shards; each shard is dispatched as a worker
// process
//
//	<worker-cmd> -spec - -cells lo:hi -emit cells
//
// that reads the job on stdin, as the JSON spec pnut-server accepts,
// and streams one JSONL cell record per finished cell (see pnut-sweep
// -emit cells). The coordinator resolves its grid from the same spec
// and refuses flags it cannot carry, such as -seed 0. The default
// worker is pnut-sweep (on $PATH or next to pnut-grid), and a prefix
// like
//
//	pnut-grid -worker-cmd 'ssh build2 pnut-sweep' ...
//
// runs shards on another machine — no job value travels as an argument
// and the -net source travels in the spec, so stdin and stdout are the
// only interchange, exactly the compose-small-tools-over-pipes
// philosophy of the suite.
//
// With -adaptive metric:relci (plus -min-reps/-max-reps/-batch, see
// pnut-sweep), the coordinator runs CI-targeted stopping rounds: each
// round's unconverged points get another batch of replications, planned
// into shards over the pending cells exactly like a resumed grid. The
// stopping decision is taken only from replication-order summaries
// between rounds, so the output is still byte-identical to the
// in-process pnut-sweep run for any -procs value.
//
// With -retries, a dying worker no longer fails the run: the dead
// shard's undelivered cells are re-planned and retried (after
// -backoff, doubling per attempt), a worker slot that keeps dying is
// quarantined and its spans redistributed across the survivors, and
// -speculate lets idle slots re-dispatch the longest-running span.
// Determinism makes duplicate deliveries byte-identical, so the first
// write wins and output never changes.
//
// With -journal, completed cells are checkpointed as they arrive. If
// the run does fail (retry budget exhausted), the journal survives;
// re-running the same command re-dispatches only the missing cells and
// emits output identical to a run that never failed. Workers, shard
// counts, goroutine counts, retries and speculation never change a
// result byte: cell c always runs with seed -seed + c, and the
// coordinator merges complete grids in cell order.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/dist"
	"repro/internal/experiment"
	"repro/internal/sweepcli"
)

func main() {
	var cfg sweepcli.Config
	cfg.Register(flag.CommandLine)
	var fault sweepcli.FaultFlags
	fault.Register(flag.CommandLine)
	format := flag.String("format", "table", "output format: table or csv")
	procs := flag.Int("procs", 2, "worker processes (shards); results never depend on it")
	workerCmd := flag.String("worker-cmd", "pnut-sweep",
		"worker command (whitespace-split; gets the job spec on stdin and -spec - -cells lo:hi -emit cells)")
	journal := flag.String("journal", "", "checkpoint file: cells are journaled as they arrive; an existing journal resumes")
	verbose := flag.Bool("v", false, "log dispatch progress to stderr")
	flag.Parse()

	spec, lost, err := cfg.Spec()
	if err != nil {
		fatal(err)
	}
	opt, info, err := spec.Resolve()
	if err != nil {
		fatal(err)
	}
	name := info.Name
	meta := experiment.MetaOf(opt, name)
	if len(lost) > 0 {
		flagOpt, _, err := cfg.Options()
		if fm := experiment.MetaOf(flagOpt, name); err != nil || !fm.SameGrid(&meta) {
			fatal(fmt.Errorf("a job spec cannot carry %s: its zero fields mean the flag defaults", strings.Join(lost, ", ")))
		}
	}
	job, err := json.Marshal(spec)
	if err != nil {
		fatal(err)
	}

	argv := strings.Fields(*workerCmd)
	if len(argv) > 0 {
		if argv[0], err = resolveWorker(argv[0]); err != nil {
			fatal(err)
		}
	}
	runner, err := dist.NewExecRunner(argv, job, &meta, os.Stderr) // rejects an empty command
	if err != nil {
		fatal(err)
	}
	copt := dist.Options{
		Shards:  *procs,
		Runner:  runner,
		Journal: *journal,
		Meta:    &meta,
	}
	fault.Apply(&copt)
	if *verbose {
		copt.Log = os.Stderr
	}

	r, err := dist.Execute(context.Background(), opt, copt)
	if err != nil {
		fatal(err)
	}

	if *format == "table" {
		if r.Adaptive != nil {
			fmt.Fprintf(os.Stderr, "pnut-grid: sweep %s: %d points, adaptive %s:%g reps %d..%d (%d total), base seed %d, %d worker processes\n",
				name, len(r.Points), r.Adaptive.Metric, r.Adaptive.RelCI,
				r.Adaptive.MinReps, r.Adaptive.MaxReps, r.TotalReps, cfg.Seed, *procs)
		} else {
			fmt.Fprintf(os.Stderr, "pnut-grid: sweep %s: %d points x %d replications, base seed %d, %d worker processes\n",
				name, len(r.Points), r.Reps, cfg.Seed, *procs)
		}
	}
	if err := sweepcli.Render(os.Stdout, *format, r.WriteTable, r.WriteCSV); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pnut-grid: %s: points=%d total_reps=%d procs=%d elapsed=%s (%.0f events/s)\n",
		name, len(r.Points), r.TotalReps, *procs, r.Elapsed.Round(time.Microsecond),
		float64(r.Events)/r.Elapsed.Seconds())
}

// resolveWorker finds the worker binary: $PATH first, then — for the
// plain default — next to the pnut-grid executable, so a freshly built
// tool directory works without PATH surgery.
func resolveWorker(cmd string) (string, error) {
	if strings.ContainsRune(cmd, os.PathSeparator) {
		return cmd, nil // explicit path: use as-is
	}
	if p, err := exec.LookPath(cmd); err == nil {
		return p, nil
	}
	self, err := os.Executable()
	if err == nil {
		sibling := filepath.Join(filepath.Dir(self), cmd)
		if _, err := os.Stat(sibling); err == nil {
			return sibling, nil
		}
	}
	return "", fmt.Errorf("worker command %q not found on $PATH or next to pnut-grid", cmd)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pnut-grid:", err)
	os.Exit(1)
}
