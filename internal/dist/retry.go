// The fault-tolerant dispatch scheduler.
//
// A dispatch round used to be a fire-and-forget fan-out: every span ran
// exactly once and the first runner error cancelled the whole round.
// The dispatcher replaces that with a work queue drained by
// Options.Shards worker slots, where a failed span is salvaged instead
// of fatal:
//
//   - Only the span's undelivered cells are re-planned (missingWithin
//     the span), so cells a dying worker already streamed — and
//     the coordinator already journaled — are never re-executed.
//   - Each re-dispatch consumes one unit of the span's retry budget
//     (Options.Retries) after an exponential backoff; the round fails
//     only once a span exhausts its budget.
//   - Failures are also charged to the slot that ran them: a slot that
//     keeps dying is quarantined (see health.go) and its work
//     redistributed across the survivors without charging the span.
//   - Optionally (Options.Speculate) an idle slot re-dispatches the
//     longest-running in-flight span; determinism makes the duplicate
//     deliveries byte-identical, so first-write-wins is safe.
//
// None of this changes a single output byte: which cells run, with
// which seeds, is fixed by the grid; retries and speculation change
// only when and where they run.
package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/experiment"
)

// permanentError marks an error no retry budget may absorb: emit
// validation failures, journal write errors and a worker stream of a
// different grid abort the round even when retries remain.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }
func (e *permanentError) Unwrap() error { return e.err }

func permanent(err error) error { return &permanentError{err} }

func isPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}

// task is one queued unit of work: a span plus the retry budget its
// cells have already consumed.
type task struct {
	span    Span
	retries int  // re-dispatches already consumed by this span's cells
	spec    bool // speculative duplicate of an in-flight attempt
}

// flight is an in-flight attempt. seq is the dispatch order — the
// lowest live seq is the longest-running attempt, which is what an
// idle slot speculates on.
type flight struct {
	task
	seq        int
	speculated bool // a speculative duplicate has been issued
}

// dispatcher drains one round's spans across the worker slots,
// retrying, redistributing and speculating per Options.
type dispatcher struct {
	ctx    context.Context
	cancel context.CancelFunc
	opt    *Options
	rec    *recorder
	health *healthTracker
	shards int

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []task
	backoffs int             // failed tasks waiting out their backoff
	inflight map[int]*flight // seq -> attempt
	seq      int
	err      error // first fatal error; set at most once, cancels the round
}

func newDispatcher(ctx context.Context, cancel context.CancelFunc, opt *Options, rec *recorder, shards int) *dispatcher {
	d := &dispatcher{
		ctx:      ctx,
		cancel:   cancel,
		opt:      opt,
		rec:      rec,
		health:   newHealthTracker(shards, opt.Quarantine),
		shards:   shards,
		inflight: make(map[int]*flight),
	}
	d.cond = sync.NewCond(&d.mu)
	return d
}

// run drains units (plus any retries they spawn) across the slots and
// returns the first fatal error — or the context error if the round
// was cancelled from outside.
func (d *dispatcher) run(units []Span) error {
	d.queue = append(d.queue, make([]task, len(units))...)
	for i, u := range units {
		d.queue[i] = task{span: u}
	}
	var wg sync.WaitGroup
	for s := 0; s < d.shards; s++ {
		s := s
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.slot(s)
		}()
	}
	wg.Wait()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.err != nil {
		return d.err
	}
	return d.ctx.Err()
}

// drainGrace bounds how long a failing round waits for its surviving
// in-flight attempts: long enough that healthy workers finish streaming
// (their cells are journaled and make the resume cheaper), short enough
// that a wedged sibling cannot hold a doomed round hostage.
const drainGrace = 30 * time.Second

// fail records the round's fatal error (first one wins). New work stops
// immediately, but in-flight attempts keep streaming: every cell they
// deliver is one the resume will not re-run. Attempts that outlive the
// drain grace are cancelled. Callers hold d.mu.
func (d *dispatcher) fail(err error) {
	if d.err == nil {
		d.err = err
		time.AfterFunc(drainGrace, d.cancel)
	}
	d.cond.Broadcast()
}

// slot is one worker slot's drain loop: take a task (or speculate on a
// straggler), run it, and on failure salvage the undelivered cells.
func (d *dispatcher) slot(slot int) {
	for {
		d.mu.Lock()
		var t task
		for {
			if d.err != nil || d.ctx.Err() != nil || d.health.quarantined(slot) {
				d.mu.Unlock()
				return
			}
			if len(d.queue) > 0 {
				t = d.queue[0]
				d.queue = d.queue[1:]
				break
			}
			if d.backoffs == 0 && len(d.inflight) == 0 {
				d.mu.Unlock()
				return // round drained
			}
			if st := d.straggler(); st != nil {
				t = task{span: st.span, retries: st.retries, spec: true}
				st.speculated = true
				d.opt.logf("slot %d speculatively re-dispatching straggler %s", slot, t.span)
				break
			}
			d.cond.Wait()
		}
		d.seq++
		fl := &flight{task: t, seq: d.seq}
		d.inflight[fl.seq] = fl
		d.mu.Unlock()

		err := d.opt.Runner(d.ctx, t.span, d.emitInto(t.span))

		d.mu.Lock()
		delete(d.inflight, fl.seq)
		if err == nil {
			d.health.ok(slot)
			if !t.spec {
				d.opt.logf("shard %s done", t.span)
			}
		} else {
			d.onFailure(slot, fl, err)
		}
		quarantined := d.health.quarantined(slot)
		d.cond.Broadcast()
		d.mu.Unlock()
		if quarantined {
			return
		}
	}
}

// emitInto bounds a runner's emit callback to its span and hands
// records to the shared recorder.
func (d *dispatcher) emitInto(span Span) func(rec experiment.CellRecord) error {
	return func(rec experiment.CellRecord) error {
		if rec.Cell < span.Lo || rec.Cell >= span.Hi {
			return permanent(fmt.Errorf("cell %d outside shard %s", rec.Cell, span))
		}
		return d.rec.deliver(rec)
	}
}

// onFailure settles a failed attempt: charge the slot's health, charge
// the span's budget (unless the slot was just quarantined), and
// requeue the salvageable remainder. Callers hold d.mu.
func (d *dispatcher) onFailure(slot int, fl *flight, err error) {
	if d.ctx.Err() != nil || d.err != nil {
		// The round is already being torn down; a shard cancelled (or
		// failing during the drain) is nobody's fault and charges no
		// budget.
		return
	}
	err = fmt.Errorf("dist: shard %s: %w", fl.span, err)
	if isPermanent(err) {
		d.fail(err)
		return
	}
	quarantinedNow := d.health.fail(slot)
	if quarantinedNow {
		d.opt.logf("slot %d quarantined after repeated failures; redistributing its work (%d slots remain)",
			slot, d.health.activeSlots())
		if d.health.activeSlots() == 0 {
			d.fail(fmt.Errorf("all %d worker slots quarantined: %w", d.shards, err))
			return
		}
	}
	salvage := d.salvage(fl.span)
	if len(salvage) == 0 {
		// Every undelivered cell of the span is owned by another
		// in-flight attempt (its twin, after speculation): that attempt
		// will deliver them or be charged instead.
		return
	}
	retries := fl.retries
	if !quarantinedNow {
		// The failure that trips a quarantine blames the slot, not the
		// span: redistribution is free, a retry costs budget.
		retries++
	}
	if retries > d.opt.Retries {
		if d.opt.Retries > 0 {
			err = fmt.Errorf("%w (retry budget of %d exhausted)", err, d.opt.Retries)
		}
		d.fail(err)
		return
	}
	salvaged := 0
	for _, s := range salvage {
		salvaged += s.Size()
	}
	delay := backoffDelay(d.opt.Backoff, retries)
	d.opt.logf("shard %s failed; retrying %d undelivered cells in %s (attempt %d/%d): %v",
		fl.span, salvaged, delay, retries, d.opt.Retries, err)
	d.requeue(salvage, retries, delay)
}

// straggler picks the longest-running in-flight attempt that is
// neither speculative itself nor already speculated on.
func (d *dispatcher) straggler() *flight {
	if !d.opt.Speculate {
		return nil
	}
	var best *flight
	for _, fl := range d.inflight {
		if fl.spec || fl.speculated {
			continue
		}
		if best == nil || fl.seq < best.seq {
			best = fl
		}
	}
	return best
}

// salvage plans the retry of a failed attempt: the span's cells that
// are neither delivered nor owned by another in-flight attempt.
func (d *dispatcher) salvage(span Span) []Span {
	return missingWithin(span, func(c int) bool {
		if d.rec.have(c) {
			return true
		}
		for _, fl := range d.inflight {
			if fl.span.Lo <= c && c < fl.span.Hi {
				return true
			}
		}
		return false
	})
}

// requeue returns salvaged spans to the queue after delay, keeping the
// round alive (backoffs > 0) while the timer runs.
func (d *dispatcher) requeue(spans []Span, retries int, delay time.Duration) {
	tasks := make([]task, len(spans))
	for i, s := range spans {
		tasks[i] = task{span: s, retries: retries}
	}
	if delay <= 0 {
		d.queue = append(d.queue, tasks...)
		return
	}
	d.backoffs++
	go func() {
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-d.ctx.Done():
		}
		d.mu.Lock()
		d.backoffs--
		d.queue = append(d.queue, tasks...)
		d.cond.Broadcast()
		d.mu.Unlock()
	}()
}

// backoffDelay is the exponential backoff before a re-dispatch:
// attempt k (1-based) waits base << (k-1), capped at 30s.
func backoffDelay(base time.Duration, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	const maxDelay = 30 * time.Second
	d := base
	for i := 1; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	if d > maxDelay {
		d = maxDelay
	}
	return d
}
