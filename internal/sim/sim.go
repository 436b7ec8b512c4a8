// Package sim is the P-NUT simulation engine: "a simple simulation
// engine which pushes tokens around a Timed Petri Net" (Section 4.1).
//
// The engine implements the paper's extended-TPN semantics:
//
//   - A transition is enabled when its input places hold the arc weights,
//     its inhibitor places do not, and its predicate (if any) is true.
//   - A transition with an enabling time must be continuously enabled for
//     that long before it may fire; losing enablement resets the timer.
//     After each firing the timer restarts.
//   - When a transition fires, input tokens are removed immediately; if
//     it has a firing time the output tokens appear that much later
//     (during the firing the tokens are "neither on the inputs nor on the
//     outputs"). Actions run when the firing completes.
//   - When several transitions are ready at the same instant, one is
//     chosen with probability proportional to its relative firing
//     frequency [WPS86]; selection repeats until no transition is ready,
//     then the clock advances to the next completion or ripening.
//
// # Event scheduling
//
// The hot loop is indexed rather than scanned. One binary heap holds
// every future event — firing completions and enabling-timer ripenings
// — ordered by (time, insertion sequence), with lazy invalidation:
// a ripening entry carries the generation of the timer that scheduled
// it, and entries whose generation no longer matches are discarded when
// they surface. The set of transitions ready to fire *now* (the ripe
// set) is maintained incrementally from enablement refreshes instead of
// being rebuilt by a full transition scan per firing. It is a bitset
// over transition ids, so joining or leaving it is one bit operation,
// and conflict resolution walks the set bits in ascending id, consuming
// random numbers in exactly the order of the original scanning engine.
//
// Which transitions to re-check after a firing starts or ends is fixed
// by the net, so NewEngine precomputes one refresh list per (transition,
// start|end): the Affected lists of its input (start) or output (end)
// places, concatenated in arc order. A predicate-free transition is
// kept only at its first occurrence — refreshing it again cannot change
// anything, since a refresh never changes the marking. Every repeat of
// a predicated transition is kept: a predicate may call irand, so each
// evaluation draws from the run's random source, and dropping one would
// shift every later draw.
//
// Per event the engine does O(log E) heap work plus O(neighborhood)
// refresh work, instead of O(T) scans — and the firing path allocates
// nothing once the engine's buffers are warm.
//
// Determinism contract: for equal seeds the engine produces bit-equal
// traces — equal-time completions complete in firing-start order,
// equal-time ripenings join the ripe set before conflict resolution,
// the ripe set is always iterated in ascending transition id, and every
// predicate is evaluated as many times, in the same order, as by the
// original engine. The frozen linear-scan engine in oracle_test.go pins
// this contract.
//
// The engine knows nothing about analysis: it emits trace records to an
// Observer (package trace), which may be a file writer, a statistics
// accumulator, a tracer, an animator, or any Tee of those.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"

	"repro/internal/expr"
	"repro/internal/petri"
	"repro/internal/trace"
)

// Options control one simulation experiment.
type Options struct {
	// Seed seeds the run's private random source. Equal seeds give equal
	// traces.
	Seed int64
	// Horizon stops the run when the clock would pass it. The run ends
	// exactly at Horizon (pending firings are not completed), matching a
	// fixed-length experiment such as the paper's 10 000-cycle run.
	Horizon petri.Time
	// MaxStarts, if positive, stops the run after that many firings have
	// started. Either Horizon or MaxStarts must be set.
	MaxStarts int64
	// MaxStepsPerInstant guards against zero-time livelock (a loop of
	// timeless transitions). Default 1 000 000.
	MaxStepsPerInstant int
}

// Result summarizes a run.
type Result struct {
	Clock     petri.Time
	Starts    int64
	Ends      int64
	Quiescent bool          // the net ran out of events before the horizon
	Final     petri.Marking // marking when the run stopped
	Vars      map[string]int64
}

// ErrLivelock is returned when more than MaxStepsPerInstant firings start
// at a single instant.
var ErrLivelock = errors.New("sim: livelock: too many firings at one instant")

// Event kinds in the unified scheduler heap.
const (
	evComplete = uint8(iota) // a started firing finishes at ev.at
	evRipen                  // an enabling timer expires at ev.at
)

// event is one scheduled occurrence. Events order by (at, seq); seq is
// a global insertion counter, so equal-time completions pop in the
// order their firings started — the tie-break the determinism contract
// pins. Ripening entries are invalidated lazily: gen snapshots the
// transition's timer generation at push time and a mismatch at pop time
// means the timer was since reset or cleared.
type event struct {
	at    petri.Time
	seq   int64
	trans petri.TransID
	gen   uint32
	kind  uint8
}

// transState is the per-transition simulation state.
type transState struct {
	enabled bool
	// deferred marks an enabled, timed transition that is at its server
	// cap: its ripening is not an event (the original engine's scan
	// skipped capped transitions), so no heap entry exists, and the
	// completion that uncaps it re-arms the stored ripeAt.
	deferred bool
	// hasEntry tracks whether a live ripening entry for gen is in the
	// heap, so invalidation can count stale entries for compaction.
	hasEntry bool
	gen      uint32
	ripeAt   petri.Time // valid while enabled
	active   int        // concurrent firings in progress
}

// ctxCheckBatch is how many scheduler steps run between context-
// cancellation checks: cancellation latency is a few thousand events
// while the per-event overhead stays one counter increment.
const ctxCheckBatch = 4096

// Engine is a reusable simulator for one immutable net. A fresh Engine
// is cheap — its refresh lists are one pass over the net's Affected
// index, precomputed at Build time — but replication drivers (package
// experiment) run many short experiments back to back, so Run resets
// and reuses the engine's state vectors, event heap and scratch buffers
// instead of reallocating them.
//
// An Engine is not safe for concurrent use; give each goroutine its
// own (see NewEngine).
type Engine struct {
	net   *petri.Net
	opt   Options
	rng   *rand.Rand
	src   rand.Source
	env   *expr.Env
	obs   trace.Observer
	ctx   context.Context
	clock petri.Time
	m     petri.Marking
	ts    []transState

	// evq is the unified event heap; stale counts invalidated ripening
	// entries still buried in it (compacted away when they dominate).
	evq   []event
	stale int
	seq   int64

	// ripe is the current ripe set, one bit per transition id; nripe
	// counts its members.
	ripe  []uint64
	nripe int

	// refList holds the refresh lists back to back: the list for a
	// firing start of t is refList[refOff[2t]:refOff[2t+1]], for its end
	// refList[refOff[2t+1]:refOff[2t+2]].
	refOff  []int32
	refList []petri.TransID

	// effFreq caches EffFreq per transition: the hot loop reads it as a
	// dense slice instead of chasing into the Transition structs.
	effFreq []float64

	starts, ends int64
	ctxTick      uint32

	// scratch buffers reused across records
	deltas []trace.Delta
	// rec is the scratch record reused for every emitted event, so the
	// firing path allocates nothing per event (observers must not retain
	// records, see trace.Observer). Start and End records assign only
	// the fields they carry.
	rec trace.Record
}

// NewEngine returns an engine for net with all per-run state allocated
// up front, sized to the net.
func NewEngine(net *petri.Net) *Engine {
	src := rand.NewSource(0)
	e := &Engine{
		net:     net,
		src:     src,
		rng:     rand.New(src),
		m:       make(petri.Marking, net.NumPlaces()),
		ts:      make([]transState, net.NumTrans()),
		ripe:    make([]uint64, (net.NumTrans()+63)/64),
		effFreq: make([]float64, net.NumTrans()),
	}
	for i := range e.effFreq {
		e.effFreq[i] = net.Trans[i].EffFreq()
	}
	e.buildRefreshLists()
	e.env = net.NewEnv(e.rng)
	return e
}

// buildRefreshLists precomputes the per-(transition, start|end) refresh
// lists described in the package comment.
func (e *Engine) buildRefreshLists() {
	n := e.net.NumTrans()
	size := 0 // the lists' total length before deduplication
	for t := range e.net.Trans {
		for _, a := range e.net.Trans[t].In {
			size += len(e.net.Affected(a.Place))
		}
		for _, a := range e.net.Trans[t].Out {
			size += len(e.net.Affected(a.Place))
		}
	}
	e.refOff = make([]int32, 2*n+1)
	e.refList = make([]petri.TransID, 0, size)
	// lastList[u] is the last list u was appended to, so a predicate-free
	// transition is kept only at its first occurrence in each list.
	lastList := make([]int, n)
	for i := range lastList {
		lastList[i] = -1
	}
	for t := range e.net.Trans {
		tr := &e.net.Trans[t]
		for end, arcs := range [2][]petri.Arc{tr.In, tr.Out} {
			k := 2*t + end
			for _, a := range arcs {
				for _, u := range e.net.Affected(a.Place) {
					if e.net.Trans[u].Predicate == nil {
						if lastList[u] == k {
							continue
						}
						lastList[u] = k
					}
					e.refList = append(e.refList, u)
				}
			}
			e.refOff[k+1] = int32(len(e.refList))
		}
	}
}

// reset rewinds the engine to the net's initial state for a run under
// opt, reseeding the random source. No per-place or per-transition
// storage is reallocated.
func (e *Engine) reset(opt Options) {
	e.opt = opt
	e.src.Seed(opt.Seed)
	e.m = e.net.InitialMarkingInto(e.m)
	for i := range e.ts {
		e.ts[i] = transState{}
	}
	e.evq = e.evq[:0]
	e.stale = 0
	clear(e.ripe)
	e.nripe = 0
	e.clock, e.seq, e.starts, e.ends = 0, 0, 0, 0
	e.ctxTick = 0
	e.env = e.net.NewEnv(e.rng)
}

// Run simulates the engine's net once under opt, streaming the trace to
// obs (nil discards it), and returns the run summary. The engine may be
// Run again with fresh Options; equal seeds give equal traces.
//
// ctx cancels a run in progress: it is checked every few thousand
// scheduler steps (never per event), and a cancelled run returns ctx's
// error. A nil ctx means context.Background().
func (e *Engine) Run(ctx context.Context, obs trace.Observer, opt Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	if opt.Horizon <= 0 && opt.MaxStarts <= 0 {
		return Result{}, errors.New("sim: Options must set Horizon or MaxStarts")
	}
	if opt.MaxStepsPerInstant <= 0 {
		opt.MaxStepsPerInstant = 1_000_000
	}
	if obs == nil {
		obs = trace.Discard
	}
	e.obs = obs
	e.ctx = ctx
	e.reset(opt)
	err := e.run()
	e.ctx = nil
	if err != nil {
		return Result{}, err
	}
	return Result{
		Clock:     e.clock,
		Starts:    e.starts,
		Ends:      e.ends,
		Quiescent: e.quiescent(),
		Final:     e.m.Clone(),
		Vars:      e.env.Snapshot(),
	}, nil
}

// Run simulates net, streaming the trace to obs (which may be nil to
// discard it), and returns the run summary. It is the one-shot form of
// NewEngine(net).Run(ctx, obs, opt).
func Run(ctx context.Context, net *petri.Net, obs trace.Observer, opt Options) (Result, error) {
	return NewEngine(net).Run(ctx, obs, opt)
}

func (e *Engine) quiescent() bool {
	if e.starts > e.ends {
		return false // firings in progress: completions are pending
	}
	for i := range e.ts {
		if e.ts[i].enabled && e.effFreq[i] != 0 {
			return false
		}
	}
	return true
}

func (e *Engine) emit(rec *trace.Record) error { return e.obs.Record(rec) }

// checkCtx reports the context's error once per ctxCheckBatch calls.
func (e *Engine) checkCtx() error {
	if e.ctxTick++; e.ctxTick&(ctxCheckBatch-1) != 0 {
		return nil
	}
	return e.ctx.Err()
}

func (e *Engine) run() error {
	e.rec = trace.Record{Kind: trace.Initial, Time: 0, Marking: e.m.Clone()}
	if err := e.emit(&e.rec); err != nil {
		return err
	}
	e.rec.Marking = nil
	if err := e.refreshAll(); err != nil {
		return err
	}
	if err := e.settle(); err != nil {
		return err
	}
	for !e.done() {
		if err := e.checkCtx(); err != nil {
			return err
		}
		next, any := e.nextEventTime()
		if !any {
			break // quiescent
		}
		if e.opt.Horizon > 0 && next > e.opt.Horizon {
			e.clock = e.opt.Horizon
			break
		}
		e.clock = next
		if err := e.completeDue(); err != nil {
			return err
		}
		if err := e.settle(); err != nil {
			return err
		}
	}
	if e.opt.Horizon > 0 && e.clock < e.opt.Horizon && e.quiescent() {
		// A quiescent net simply idles until the end of the experiment.
		e.clock = e.opt.Horizon
	}
	e.rec = trace.Record{Kind: trace.Final, Time: e.clock, Starts: e.starts, Ends: e.ends}
	return e.emit(&e.rec)
}

func (e *Engine) done() bool {
	return e.opt.MaxStarts > 0 && e.starts >= e.opt.MaxStarts
}

// nextEventTime peeks the earliest live event, discarding stale
// ripening entries that surface at the top of the heap. By the arm
// invariant a live ripening always belongs to an enabled, uncapped,
// nonzero-frequency transition, so no further checks are needed.
func (e *Engine) nextEventTime() (petri.Time, bool) {
	for len(e.evq) > 0 {
		top := &e.evq[0]
		if top.kind == evComplete || top.gen == e.ts[top.trans].gen {
			return top.at, true
		}
		e.popEvent()
		e.stale--
	}
	return 0, false
}

func (e *Engine) capped(t petri.TransID) bool {
	s := e.net.Trans[t].Servers
	return s > 0 && e.ts[t].active >= s
}

// arm re-derives transition t's scheduling state after anything that
// could change it: enablement flips, timer restarts, or reaching the
// server cap. Any previous heap entry is invalidated (generation bump);
// then t is either ripe now (joins the ripe set), ripening later (a new
// heap entry), deferred (capped: the uncapping completion re-arms it),
// or unscheduled (disabled or frequency 0).
func (e *Engine) arm(t petri.TransID) {
	st := &e.ts[t]
	if st.hasEntry {
		e.stale++
		st.hasEntry = false
	}
	st.gen++
	st.deferred = false
	e.clearRipe(t)
	if !st.enabled || e.effFreq[t] == 0 {
		return
	}
	if e.capped(t) {
		st.deferred = true
		return
	}
	if st.ripeAt <= e.clock {
		e.setRipe(t)
	} else {
		e.pushRipen(t)
	}
}

// pushRipen schedules t's current timer as a heap event.
func (e *Engine) pushRipen(t petri.TransID) {
	st := &e.ts[t]
	e.seq++
	e.pushEvent(event{at: st.ripeAt, seq: e.seq, trans: t, gen: st.gen, kind: evRipen})
	st.hasEntry = true
}

// refresh recomputes the enabled state of transition t, starting or
// clearing its enabling timer as needed.
func (e *Engine) refresh(t petri.TransID) error {
	now, err := e.net.Enabled(t, e.m, e.env)
	if err != nil {
		return err
	}
	st := &e.ts[t]
	switch {
	case now && !st.enabled:
		st.enabled = true
		if err := e.startTimer(t); err != nil {
			return err
		}
	case !now && st.enabled:
		st.enabled = false
		e.arm(t)
	}
	return nil
}

// startTimer samples the enabling delay for t, sets its ripening time
// and re-arms its scheduling state.
func (e *Engine) startTimer(t petri.TransID) error {
	st := &e.ts[t]
	var d petri.Time
	if del := e.net.Trans[t].Enabling; del != nil {
		var err error
		d, err = del.Sample(e.rng, e.env)
		if err != nil {
			return fmt.Errorf("sim: enabling time of %q: %w", e.net.Trans[t].Name, err)
		}
		if d < 0 {
			return fmt.Errorf("sim: negative enabling time %d for %q", d, e.net.Trans[t].Name)
		}
	}
	st.ripeAt = e.clock + d
	e.arm(t)
	return nil
}

func (e *Engine) refreshAll() error {
	for i := range e.ts {
		if err := e.refresh(petri.TransID(i)); err != nil {
			return err
		}
	}
	return nil
}

// refreshAffected rechecks the transitions whose enablement can have
// changed after a firing of t started (end false) or ended (end true),
// plus (if env might have changed) all predicated transitions.
func (e *Engine) refreshAffected(t petri.TransID, end, envChanged bool) error {
	k := 2 * int(t)
	if end {
		k++
	}
	for _, u := range e.refList[e.refOff[k]:e.refOff[k+1]] {
		if err := e.refresh(u); err != nil {
			return err
		}
	}
	if envChanged {
		for _, t := range e.net.Predicated() {
			if err := e.refresh(t); err != nil {
				return err
			}
		}
	}
	return nil
}

// settle starts every firing that can start at the current instant. The
// ripe set is already current — refresh/arm maintain it incrementally —
// so each step is a conflict-resolution draw plus one firing, with no
// per-transition scan.
func (e *Engine) settle() error {
	for step := 0; ; step++ {
		if step > e.opt.MaxStepsPerInstant {
			return fmt.Errorf("%w (t=%d)", ErrLivelock, e.clock)
		}
		if e.done() {
			return nil
		}
		if e.nripe == 0 {
			return nil
		}
		if err := e.checkCtx(); err != nil {
			return err
		}
		pick := e.choose()
		if err := e.fire(pick); err != nil {
			return err
		}
	}
}

// choose selects among the (nonempty) ripe set with probability
// proportional to relative firing frequency, walking the set in
// ascending transition id.
func (e *Engine) choose() petri.TransID {
	if e.nripe == 1 {
		for w, word := range e.ripe {
			if word != 0 {
				return petri.TransID(w<<6 | bits.TrailingZeros64(word))
			}
		}
	}
	total := 0.0
	for w, word := range e.ripe {
		for ; word != 0; word &= word - 1 {
			total += e.effFreq[w<<6|bits.TrailingZeros64(word)]
		}
	}
	x := e.rng.Float64() * total
	var last petri.TransID
	for w, word := range e.ripe {
		for ; word != 0; word &= word - 1 {
			last = petri.TransID(w<<6 | bits.TrailingZeros64(word))
			if x -= e.effFreq[last]; x < 0 {
				return last
			}
		}
	}
	return last
}

// fire starts one firing of t: consume inputs, emit the Start record, and
// either complete immediately (zero firing time) or schedule completion.
func (e *Engine) fire(t petri.TransID) error {
	tr := &e.net.Trans[t]
	var dur petri.Time
	if tr.Firing != nil {
		var err error
		dur, err = tr.Firing.Sample(e.rng, e.env)
		if err != nil {
			return fmt.Errorf("sim: firing time of %q: %w", tr.Name, err)
		}
		if dur < 0 {
			return fmt.Errorf("sim: negative firing time %d for %q", dur, tr.Name)
		}
	}
	e.deltas = e.deltas[:0]
	for _, a := range tr.In {
		e.deltas = append(e.deltas, trace.Delta{Place: a.Place, Change: -a.Weight})
	}
	e.net.Consume(t, e.m)
	e.starts++
	e.rec.Kind, e.rec.Time, e.rec.Trans, e.rec.Deltas = trace.Start, e.clock, t, e.deltas
	if err := e.emit(&e.rec); err != nil {
		return err
	}
	if err := e.refreshAffected(t, false, false); err != nil {
		return err
	}
	// Count the in-flight firing before re-arming, so the timer restart
	// below sees the server cap this firing may have just filled.
	if dur > 0 {
		e.ts[t].active++
		e.seq++
		e.pushEvent(event{at: e.clock + dur, seq: e.seq, trans: t, kind: evComplete})
	}
	// The enabling timer restarts for the next firing if t is still
	// enabled (continuous enablement is counted per firing).
	if e.ts[t].enabled {
		if err := e.startTimer(t); err != nil {
			return err
		}
	}
	if dur == 0 {
		return e.complete(t)
	}
	return nil
}

// complete finishes one firing of t: produce outputs, run the action,
// emit the End record.
func (e *Engine) complete(t petri.TransID) error {
	tr := &e.net.Trans[t]
	e.deltas = e.deltas[:0]
	for _, a := range tr.Out {
		e.deltas = append(e.deltas, trace.Delta{Place: a.Place, Change: a.Weight})
	}
	e.net.Produce(t, e.m)
	e.ends++
	envChanged := false
	if tr.Action != nil {
		if err := tr.Action.Exec(e.env); err != nil {
			return fmt.Errorf("sim: action of %q: %w", tr.Name, err)
		}
		envChanged = true
	}
	e.rec.Kind, e.rec.Time, e.rec.Trans, e.rec.Deltas = trace.End, e.clock, t, e.deltas
	if err := e.emit(&e.rec); err != nil {
		return err
	}
	return e.refreshAffected(t, true, envChanged)
}

// completeDue drains every event scheduled for the current clock:
// completions finish their firing (in firing-start order, preserving
// the trace tie-break), live ripenings move their transition into the
// ripe set, and stale ripenings are discarded.
func (e *Engine) completeDue() error {
	for len(e.evq) > 0 && e.evq[0].at == e.clock {
		ev := e.popEvent()
		st := &e.ts[ev.trans]
		if ev.kind == evRipen {
			if ev.gen != st.gen {
				e.stale--
				continue
			}
			st.hasEntry = false
			e.setRipe(ev.trans)
			continue
		}
		st.active--
		if st.deferred && st.enabled && !e.capped(ev.trans) {
			// The cap lifted: the stored timer becomes schedulable again,
			// exactly as the scanning engine's recheck would observe it.
			st.deferred = false
			if st.ripeAt <= e.clock {
				e.setRipe(ev.trans)
			} else {
				e.pushRipen(ev.trans)
			}
		}
		if err := e.complete(ev.trans); err != nil {
			return err
		}
	}
	return nil
}

// setRipe adds t to the ripe set.
func (e *Engine) setRipe(t petri.TransID) {
	w, b := t>>6, uint64(1)<<(t&63)
	if e.ripe[w]&b == 0 {
		e.ripe[w] |= b
		e.nripe++
	}
}

// clearRipe removes t from the ripe set if present.
func (e *Engine) clearRipe(t petri.TransID) {
	w, b := t>>6, uint64(1)<<(t&63)
	if e.ripe[w]&b != 0 {
		e.ripe[w] &^= b
		e.nripe--
	}
}

// evLess orders events by (time, insertion sequence).
func (e *Engine) evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pushEvent sifts ev into the heap, compacting first when stale entries
// dominate, so lazy invalidation cannot grow the heap unboundedly.
func (e *Engine) pushEvent(ev event) {
	if e.stale > 64 && e.stale > len(e.evq)/2 {
		e.compact()
	}
	e.evq = append(e.evq, ev)
	i := len(e.evq) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !e.evLess(&e.evq[i], &e.evq[parent]) {
			break
		}
		e.evq[i], e.evq[parent] = e.evq[parent], e.evq[i]
		i = parent
	}
}

// popEvent removes and returns the heap minimum.
func (e *Engine) popEvent() event {
	top := e.evq[0]
	n := len(e.evq) - 1
	e.evq[0] = e.evq[n]
	e.evq = e.evq[:n]
	e.siftDown(0)
	return top
}

func (e *Engine) siftDown(i int) {
	n := len(e.evq)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		small := l
		if r := l + 1; r < n && e.evLess(&e.evq[r], &e.evq[l]) {
			small = r
		}
		if !e.evLess(&e.evq[small], &e.evq[i]) {
			return
		}
		e.evq[i], e.evq[small] = e.evq[small], e.evq[i]
		i = small
	}
}

// compact drops stale ripening entries in place and re-heapifies:
// O(live + stale), amortized against the pushes that created them.
func (e *Engine) compact() {
	keep := e.evq[:0]
	for _, ev := range e.evq {
		if ev.kind == evComplete || ev.gen == e.ts[ev.trans].gen {
			keep = append(keep, ev)
		}
	}
	e.evq = keep
	e.stale = 0
	for i := len(e.evq)/2 - 1; i >= 0; i-- {
		e.siftDown(i)
	}
}
