package dist

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"repro/internal/experiment"
)

// A Runner executes one contiguous span of grid cells and hands every
// completed cell to emit. LocalRunner runs spans in this process;
// NewExecRunner spawns worker processes. emit may be called from the
// runner's goroutine only; the coordinator serializes across runners.
type Runner func(ctx context.Context, span Span, emit func(experiment.CellRecord) error) error

// Options configure a distributed sweep execution.
type Options struct {
	// Shards is the number of dispatch partitions and the cap on
	// concurrently running spans (one worker process each); < 1 means 1.
	Shards int
	// Runner executes one span. Required.
	Runner Runner
	// Journal, if non-empty, is the checkpoint file: completed cells are
	// appended as they arrive, and an existing journal's cells are
	// skipped and only the missing ones re-dispatched — with final
	// output identical to an uninterrupted run.
	Journal string
	// Meta identifies the grid in streams and journals. Zero value:
	// derived from the sweep options with an empty net name.
	Meta *experiment.CellMeta
	// Log, if non-nil, receives progress lines (resumed cells, dispatch
	// plan, shard completions, retries and quarantines).
	Log io.Writer
	// Retries is the per-span re-dispatch budget of one round: a failed
	// span is re-planned over only its undelivered cells (delivered
	// cells are already journaled and never re-executed) and retried up
	// to Retries times before the round fails. 0 fails on the first
	// worker death, as the coordinator always used to.
	Retries int
	// Backoff is the base delay before a failed span is re-dispatched;
	// attempt k waits Backoff << (k-1), capped at 30s. 0 retries
	// immediately.
	Backoff time.Duration
	// Speculate lets an idle worker slot re-dispatch the
	// longest-running in-flight span (straggler mitigation). The
	// duplicate deliveries are byte-identical by determinism and the
	// first write wins, so output never changes.
	Speculate bool
	// Quarantine is the consecutive-failure count at which a worker
	// slot is taken out of rotation and its spans redistributed across
	// the surviving slots — without charging the spans' retry budgets.
	// A value <= 0 means DefaultQuarantine.
	Quarantine int
}

func (o *Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, "dist: "+format+"\n", args...)
	}
}

// Execute runs opt's sweep grid across shards via copt.Runner and
// reassembles the exact in-process SweepResult: for any shard count and
// any per-worker parallelism, the result — and every byte of its table,
// CSV and pooled reports — is identical to experiment.Sweep(context.Background(), opt).
//
// A runner error no longer has to kill the round: with copt.Retries
// set, the failed span's undelivered cells are re-planned and retried
// (with exponential backoff), persistently dying worker slots are
// quarantined and their work redistributed, and — with copt.Speculate —
// idle slots re-dispatch stragglers. Only when a span exhausts its
// budget does the round fail; cells that completed before the failure
// are already journaled, so a re-run with the same journal only pays
// for the rest. None of this changes a single output byte.
func Execute(ctx context.Context, opt experiment.SweepOptions, copt Options) (*experiment.SweepResult, error) {
	if copt.Runner == nil {
		return nil, fmt.Errorf("dist: Options.Runner is required")
	}
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	cells := opt.NumCells()
	shards := copt.Shards
	if shards < 1 {
		shards = 1
	}
	meta := experiment.MetaOf(opt, "")
	if copt.Meta != nil {
		meta = *copt.Meta
	}

	byCell := make([]*experiment.CellRecord, cells)
	have := 0
	var jn *journal
	if copt.Journal != "" {
		recs, err := loadJournal(copt.Journal, meta)
		if err != nil {
			return nil, err
		}
		for i := range recs {
			rec := recs[i]
			if rec.Cell < 0 || rec.Cell >= cells {
				return nil, fmt.Errorf("dist: journal %s holds cell %d outside the %d-cell grid", copt.Journal, rec.Cell, cells)
			}
			byCell[rec.Cell] = &rec
			have++
		}
		if have > 0 {
			copt.logf("resumed %d/%d cells from %s", have, cells, copt.Journal)
		}
		jn, err = createJournal(copt.Journal, meta, recs)
		if err != nil {
			return nil, err
		}
		defer jn.close()
	}

	rec := &recorder{byCell: byCell, jn: jn}

	// dispatch drains one batch of pending spans through the
	// fault-tolerant scheduler (see retry.go): up to shards concurrent
	// runner invocations, records journaled as they arrive, failed
	// spans salvaged and retried per the Options budgets.
	dispatch := func(spans []Span) error {
		units := planUnits(spans, shards)
		if len(units) == 0 {
			return nil
		}
		todo := 0
		for _, s := range spans {
			todo += s.Size()
		}
		copt.logf("dispatching %d cells as %d shards (max %d concurrent)", todo, len(units), shards)

		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		if err := newDispatcher(runCtx, cancel, &copt, rec, shards).run(units); err != nil {
			if jn != nil {
				return fmt.Errorf("%w (completed cells are journaled in %s; re-run to resume)", err, copt.Journal)
			}
			return err
		}
		return nil
	}

	haveCell := func(c int) bool { return byCell[c] != nil }
	if opt.Adaptive != nil {
		// Adaptive rounds: the controller replays any journaled rounds
		// (recomputing convergence from the records), then each round's
		// pending cells are planned into shards exactly like a resumed
		// fixed grid. The stopping decisions are taken by the same
		// controller the in-process Sweep uses, so the two paths cannot
		// drift.
		ctrl, err := experiment.NewAdaptiveController(&opt)
		if err != nil {
			return nil, err
		}
		round := 0
		err = experiment.AdaptiveRounds(ctrl, haveCell,
			func(c int) float64 { return byCell[c].Values[ctrl.MetricIndex()] },
			func(spans []Span) error {
				round++
				counts := ctrl.RepCounts()
				copt.logf("adaptive round %d: %d points at %d..%d reps", round, opt.NumPoints(),
					slices.Min(counts), slices.Max(counts))
				if err := dispatch(spans); err != nil {
					return err
				}
				// The controller is about to read every dispatched cell;
				// a runner that returned success without delivering its
				// span must be a clean error, not a nil dereference.
				for _, s := range spans {
					for c := s.Lo; c < s.Hi; c++ {
						if byCell[c] == nil {
							return fmt.Errorf("dist: shard runners returned without delivering cell %d", c)
						}
					}
				}
				return nil
			})
		if err != nil {
			return nil, err
		}
		if round == 0 {
			copt.logf("journal already complete, nothing to dispatch")
		}
	} else {
		missing := experiment.MissingCellSpans(cells, haveCell)
		if len(missing) == 0 {
			copt.logf("journal already complete, nothing to dispatch")
		} else if err := dispatch(missing); err != nil {
			return nil, err
		}
		for c := 0; c < cells; c++ {
			if byCell[c] == nil {
				return nil, fmt.Errorf("dist: shard runners returned without delivering cell %d", c)
			}
		}
	}

	recs := make([]experiment.CellRecord, 0, cells)
	for c := 0; c < cells; c++ {
		if byCell[c] != nil {
			recs = append(recs, *byCell[c])
		}
	}
	r, err := experiment.AssembleSweep(opt, recs)
	if err != nil {
		return nil, err
	}
	r.Workers = shards
	r.Elapsed = time.Since(start)
	return r, nil
}

// recorder is the round-crossing delivery state: the byCell table, the
// journal and the duplicate policy. Salvage retries and speculative
// re-dispatch can deliver a cell more than once; determinism makes
// honest duplicates byte-identical, so the first write wins (the cell
// is journaled exactly once) and a mismatching duplicate is reported
// as corruption.
type recorder struct {
	mu     sync.Mutex
	byCell []*experiment.CellRecord
	jn     *journal
}

// have reports whether cell has been delivered.
func (r *recorder) have(cell int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byCell[cell] != nil
}

// deliver accepts one completed cell, journaling first writes and
// dropping byte-identical duplicates.
func (r *recorder) deliver(rec experiment.CellRecord) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if prev := r.byCell[rec.Cell]; prev != nil {
		same, err := sameRecord(prev, &rec)
		if err != nil {
			return permanent(err)
		}
		if same {
			return nil // duplicate delivery of identical bytes: first write wins
		}
		return permanent(fmt.Errorf("cell %d delivered twice with different content", rec.Cell))
	}
	if r.jn != nil {
		if err := r.jn.append(rec); err != nil {
			return permanent(err)
		}
	}
	c := rec
	r.byCell[rec.Cell] = &c
	return nil
}

// sameRecord compares two cell records through the canonical JSONL
// encoding — the same bytes a worker streams and the journal stores.
func sameRecord(a, b *experiment.CellRecord) (bool, error) {
	ea, err := experiment.EncodeCell(*a)
	if err != nil {
		return false, err
	}
	eb, err := experiment.EncodeCell(*b)
	if err != nil {
		return false, err
	}
	return bytes.Equal(ea, eb), nil
}

// LocalRunner returns a Runner that executes spans in this process
// through the shared shard runner, round-tripping every record through
// the JSONL codec — the in-process path exercises exactly the bytes a
// worker process would ship.
func LocalRunner(opt experiment.SweepOptions) Runner {
	return func(ctx context.Context, span Span, emit func(experiment.CellRecord) error) error {
		_, err := experiment.RunCellsContext(ctx, opt, span.Lo, span.Hi, func(rec experiment.CellRecord) error {
			line, err := experiment.EncodeCell(rec)
			if err != nil {
				return err
			}
			dec, err := experiment.DecodeCell(line)
			if err != nil {
				return err
			}
			return emit(dec)
		})
		return err
	}
}
