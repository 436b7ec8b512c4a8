package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
)

// shimRunner writes script as an executable worker shim and returns an
// exec Runner over it.
func shimRunner(t *testing.T, script string) Runner {
	t.Helper()
	if runtime.GOOS == "windows" {
		t.Skip("worker shims are shell scripts")
	}
	shim := filepath.Join(t.TempDir(), "worker.sh")
	if err := os.WriteFile(shim, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	runner, err := NewExecRunner([]string{shim}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return runner
}

func discardEmit(experiment.CellRecord) error { return nil }

// TestExecRunnerReportsCancellation: a shard killed by context
// cancellation must surface ctx.Err(), not the "signal: killed" exit
// status — a cancelled span is nobody's failure and must never be
// charged against a retry budget.
func TestExecRunnerReportsCancellation(t *testing.T) {
	runner := shimRunner(t, "#!/bin/sh\nsleep 60\n")
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- runner(ctx, Span{Lo: 0, Hi: 4}, discardEmit) }()
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled worker error = %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled worker never reaped")
	}
}

// TestExecRunnerKillsWedgedWorker: a worker that writes a garbage
// stream but stays alive used to hang the coordinator in the
// post-error drain (io.Copy on an open pipe). The runner must kill it
// and return the decode error promptly.
func TestExecRunnerKillsWedgedWorker(t *testing.T) {
	runner := shimRunner(t, "#!/bin/sh\necho not-a-cell-stream\nsleep 300\n")
	done := make(chan error, 1)
	go func() { done <- runner(context.Background(), Span{Lo: 0, Hi: 4}, discardEmit) }()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("garbage stream from a wedged worker accepted")
		}
		if errors.Is(err, context.Canceled) {
			t.Fatalf("wedged worker misattributed to cancellation: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("wedged worker hung the runner: the drain was not preceded by a kill")
	}
}

// TestExecRunnerWorkerExitError: a worker that dies without streaming
// is still a worker failure — reported as such, never as cancellation.
func TestExecRunnerWorkerExitError(t *testing.T) {
	runner := shimRunner(t, "#!/bin/sh\nexit 7\n")
	err := runner(context.Background(), Span{Lo: 0, Hi: 4}, discardEmit)
	if err == nil {
		t.Fatal("dead worker reported success")
	}
	if errors.Is(err, context.Canceled) {
		t.Fatalf("worker exit misattributed to cancellation: %v", err)
	}
}

// TestExecRunnerDriftedGridIsPermanent: a worker whose stream describes
// another grid will stream it again on every retry, so the round must
// fail on the first dispatch, naming both grids, instead of burning its
// retry budget and quarantining healthy slots.
func TestExecRunnerDriftedGridIsPermanent(t *testing.T) {
	if runtime.GOOS == "windows" {
		t.Skip("worker shims are shell scripts")
	}
	opt := gridOptions(3, 1)
	drifted := opt
	drifted.BaseSeed++
	var stream bytes.Buffer
	cw, err := experiment.NewCellWriter(&stream, experiment.MetaOf(drifted, ""))
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	streamFile, dispatches := filepath.Join(dir, "stream.jsonl"), filepath.Join(dir, "dispatches")
	if err := os.WriteFile(streamFile, stream.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	shim := filepath.Join(dir, "worker.sh")
	script := fmt.Sprintf("#!/bin/sh\necho >> %q\ncat %q\n", dispatches, streamFile)
	if err := os.WriteFile(shim, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	meta := experiment.MetaOf(opt, "")
	runner, err := NewExecRunner([]string{shim}, nil, &meta, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Execute(context.Background(), opt, Options{Shards: 1, Runner: runner, Meta: &meta, Retries: 3})
	if err == nil || !strings.Contains(err.Error(), `"baseSeed":1989`) || !strings.Contains(err.Error(), `"baseSeed":1988`) {
		t.Errorf("drifted worker grid: err = %v, want one naming both base seeds", err)
	}
	if log, _ := os.ReadFile(dispatches); len(log) != 1 {
		t.Errorf("drifted worker dispatched %d times, want once", len(log))
	}
}
