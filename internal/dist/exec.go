package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"

	"repro/internal/experiment"
)

// NewExecRunner returns a Runner that spawns one worker process per
// span: the worker command argv is extended with
//
//	-spec - -cells lo:hi -emit cells
//
// gets job (the JSON sweepcli.Spec of the sweep) on stdin, and must
// write a cell-record stream on stdout. No job value travels as an
// argument, so an ssh or container prefix in argv distributes the
// shard off-host: stdin and stdout are the only interchange.
//
// meta, if non-nil, is checked against each worker's stream meta, so a
// worker whose grid drifted (different axes, seed or metrics) fails the
// round, as a retry would stream the same meta, instead of silently
// corrupting the grid. stderr, if non-nil, receives the workers'
// stderr (timing lines).
func NewExecRunner(argv []string, job []byte, meta *experiment.CellMeta, stderr io.Writer) (Runner, error) {
	if len(argv) == 0 || argv[0] == "" {
		return nil, fmt.Errorf("dist: empty worker command")
	}
	return func(ctx context.Context, span Span, emit func(experiment.CellRecord) error) error {
		args := append(append([]string(nil), argv[1:]...),
			"-spec", "-", "-cells", span.String(), "-emit", "cells")
		cmd := exec.CommandContext(ctx, argv[0], args...)
		cmd.Stdin = bytes.NewReader(job)
		isolateWorker(cmd)
		cmd.Cancel = func() error { return killWorker(cmd) }
		cmd.Stderr = stderr
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			return fmt.Errorf("starting worker %q: %w", argv[0], err)
		}
		// Decode the stream as it arrives. On any decode/emit error,
		// kill the worker before draining — a wedged-but-alive worker
		// would hold the pipe open and block the drain forever — then
		// reap it, so no process leaks past the coordinator.
		streamErr := decodeStream(stdout, span, meta, emit)
		if streamErr != nil {
			killWorker(cmd)
			io.Copy(io.Discard, stdout)
		}
		waitErr := cmd.Wait()
		if ctx.Err() != nil {
			// A cancelled shard dies with "signal: killed" from Wait;
			// report the cancellation itself so the scheduler never
			// charges a cancelled span against a retry budget.
			return ctx.Err()
		}
		if streamErr != nil {
			// The stream error outranks the exit status: after a
			// decode or emit failure the kill above makes Wait report
			// our own signal, not the worker's fault.
			return streamErr
		}
		if waitErr != nil {
			return fmt.Errorf("worker %q: %w", argv[0], waitErr)
		}
		return nil
	}, nil
}

func decodeStream(r io.Reader, span Span, meta *experiment.CellMeta, emit func(experiment.CellRecord) error) error {
	cr, err := experiment.NewCellReader(r)
	if err != nil {
		return err
	}
	if meta != nil {
		got := cr.Meta()
		if !got.SameGrid(meta) {
			w, _ := json.Marshal(got) // a non-finite value renders empty
			c, _ := json.Marshal(meta)
			return permanent(fmt.Errorf("worker stream describes a different sweep: worker grid %s, coordinator grid %s", w, c))
		}
	}
	n := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := emit(rec); err != nil {
			return err
		}
		n++
	}
	if n != span.Size() {
		return fmt.Errorf("worker delivered %d of %d cells", n, span.Size())
	}
	return nil
}
