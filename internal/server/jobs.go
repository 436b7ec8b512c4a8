package server

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/server/cache"
	"repro/internal/sweepcli"
)

// Job states. A job moves queued -> running -> done|failed|canceled;
// cache hits are born done.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// Job is one admitted sweep. It is split in two so that a finished
// job costs little to retain: the status record (identity, state,
// timestamps, progress, the result body) lives as long as the store
// keeps the job, while run holds what only a queued or running job
// needs — the spec, the resolved sweep, the pinned grid, the cancel
// func and the SSE broker — and is released when the job reaches a
// terminal state. Cache hits are born done and never have a run part.
//
// The identity fields are set at creation; everything else is guarded
// by mu. The done channel closes exactly once, when the job reaches a
// terminal state — result waiters and the drain path block on it.
type Job struct {
	ID     string
	Key    string
	Format string
	Model  string

	mu          sync.Mutex
	state       string
	err         string
	body        []byte
	contentType string
	cacheHit    bool
	dropped     bool // the store released body; the result comes from the cache
	created     time.Time
	started     time.Time
	finished    time.Time
	cellsDone   int
	cellsTotal  int
	events      int64
	run         *jobRun

	done chan struct{}
}

// jobRun is the part of a job needed only until it is terminal.
type jobRun struct {
	spec sweepcli.Spec
	// opt is the resolved sweep (shared by the runner and the dist
	// path); meta pins the expanded grid for worker dispatch.
	opt    experiment.SweepOptions
	meta   experiment.CellMeta
	cancel context.CancelFunc
	sse    *broker
}

// closedDone is the done channel of every job born terminal.
var closedDone = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// JobView is the JSON shape of a job in API responses.
type JobView struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Model      string `json:"model,omitempty"`
	Format     string `json:"format"`
	Cache      string `json:"cache"`
	CellsDone  int    `json:"cellsDone"`
	CellsTotal int    `json:"cellsTotal"`
	Events     int64  `json:"events,omitempty"`
	Error      string `json:"error,omitempty"`
	Created    string `json:"created,omitempty"`
	Started    string `json:"started,omitempty"`
	Finished   string `json:"finished,omitempty"`
}

// View snapshots the job for JSON rendering.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := j.viewLocked()
	stamp := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.UTC().Format(time.RFC3339Nano)
	}
	v.Created, v.Started, v.Finished = stamp(j.created), stamp(j.started), stamp(j.finished)
	return v
}

// State returns the job's current state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Done exposes the terminal-state channel.
func (j *Job) Done() <-chan struct{} { return j.done }

// claimRunning transitions queued -> running; false if the job was
// canceled while waiting in the queue (its slot is simply skipped).
func (j *Job) claimRunning(cancel context.CancelFunc) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = time.Now()
	j.run.cancel = cancel
	j.run.sse.publish(sseEvent{name: "state", data: mustJSON(j.viewLocked())})
	return true
}

// progress records one completed cell and feeds the SSE stream.
func (j *Job) progress(done, total int) {
	j.mu.Lock()
	j.cellsDone, j.cellsTotal = done, total
	j.mu.Unlock()
	if sse := j.broker(); sse != nil {
		sse.publish(sseEvent{name: "progress", data: fmt.Sprintf(`{"cellsDone":%d,"cellsTotal":%d}`, done, total)})
	}
}

// terminalLocked reports whether the job has reached a final state.
func (j *Job) terminalLocked() bool {
	return j.state == StateDone || j.state == StateFailed || j.state == StateCanceled
}

// completeLocked records the terminal transition (j.mu held, state not
// yet terminal), releases the run part and returns the broker and the
// SSE event to publish after unlocking.
func (j *Job) completeLocked(state string, body []byte, contentType, errMsg string, events int64) (*broker, sseEvent) {
	j.state = state
	j.body, j.contentType = body, contentType
	j.err = errMsg
	j.events += events
	j.finished = time.Now()
	sse := j.run.sse
	j.run = nil
	return sse, sseEvent{name: "state", data: mustJSON(j.viewLocked())}
}

// seal publishes the terminal event and wakes all waiters. Must be
// called exactly once, after completeLocked, outside j.mu.
func (j *Job) seal(sse *broker, ev sseEvent) {
	sse.publish(ev)
	sse.close()
	close(j.done)
}

// complete moves the job to a terminal state exactly once; it returns
// nil if the job already was terminal. body/contentType are only
// meaningful for StateDone. The waiters sleep until the caller calls
// the returned seal, so the server retires the job first: a waiter
// never wakes to a finished job the store has not counted.
func (j *Job) complete(state string, body []byte, contentType, errMsg string, events int64) (seal func()) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.terminalLocked() {
		return nil
	}
	sse, ev := j.completeLocked(state, body, contentType, errMsg, events)
	return func() { j.seal(sse, ev) }
}

// requestCancel cancels the job. A still-queued job goes terminal here
// — its queue slot is skipped when the runner reaches it — and the
// returned seal wakes its waiters, as for complete; a running job has
// its context canceled and the runner finalizes the state
// asynchronously, and seal is nil. The two branches and claimRunning
// all race under j.mu, so a job can never be marked canceled after a
// runner claimed it without its context being canceled too.
func (j *Job) requestCancel() (seal func()) {
	j.mu.Lock()
	if j.state == StateQueued {
		sse, ev := j.completeLocked(StateCanceled, nil, "", "canceled before start", 0)
		j.mu.Unlock()
		return func() { j.seal(sse, ev) }
	}
	var cancel context.CancelFunc
	if j.state == StateRunning {
		cancel = j.run.cancel
	}
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
	return nil
}

// viewLocked is View without the timestamps, with j.mu already held.
func (j *Job) viewLocked() JobView {
	v := JobView{
		ID: j.ID, State: j.state, Model: j.Model, Format: j.Format,
		Cache: "miss", CellsDone: j.cellsDone, CellsTotal: j.cellsTotal,
		Events: j.events, Error: j.err,
	}
	if j.cacheHit {
		v.Cache = "hit"
	}
	return v
}

// Result returns the terminal body; ok is false until the job is done,
// and dropped is true once the store has released a done job's body.
func (j *Job) Result() (body []byte, contentType string, cacheHit, ok, dropped bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, "", false, false, false
	}
	return j.body, j.contentType, j.cacheHit, true, j.dropped
}

// runPart returns the job's run part: non-nil while the job is queued
// or running, so always for the runner that claimed it.
func (j *Job) runPart() *jobRun {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.run
}

// broker returns the job's SSE broker, nil once the job is terminal.
func (j *Job) broker() *broker {
	if run := j.runPart(); run != nil {
		return run.sse
	}
	return nil
}

// bodyLen is the size of the body the job holds.
func (j *Job) bodyLen() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return int64(len(j.body))
}

// dropBody releases a finished job's body and returns its size.
func (j *Job) dropBody() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := int64(len(j.body))
	if j.body != nil {
		j.body, j.dropped = nil, true
	}
	return n
}

// Retention limits for finished jobs. The store keeps at most
// retainJobs finished records, evicting the oldest finished first, and
// at most retainBodyBytes of result bodies pinned by them, dropping the
// oldest bodies first; a dropped body is served from the result cache
// by the job's key. Queued and running jobs, and the job that has just
// finished, are never evicted and keep their body.
const (
	retainJobs      = 1024
	retainBodyBytes = 64 << 20
)

// jobStore tracks jobs by ID in admission order.
type jobStore struct {
	mu   sync.Mutex
	seq  int
	jobs map[string]*Job
	// ids is the admission order; it may still hold IDs no longer in
	// jobs, until compactLocked drops them.
	ids []string
	// finished holds the retained terminal jobs, oldest first; the
	// bodies of finished[:dropped] are released, and bodyBytes sums
	// the bodies of the rest.
	finished  []*Job
	dropped   int
	bodyBytes int64

	maxFinished  int
	maxBodyBytes int64
}

func newJobStore() *jobStore {
	return &jobStore{jobs: make(map[string]*Job), maxFinished: retainJobs, maxBodyBytes: retainBodyBytes}
}

// add creates and registers a queued job.
func (st *jobStore) add(spec sweepcli.Spec, format string, opt experiment.SweepOptions, meta experiment.CellMeta, info sweepcli.ModelInfo, key string) *Job {
	return st.register(&Job{
		Key:        key,
		Format:     format,
		Model:      info.Name,
		state:      StateQueued,
		created:    time.Now(),
		cellsTotal: opt.NumCells(),
		run:        &jobRun{spec: spec, opt: opt, meta: meta, sse: newBroker()},
		done:       make(chan struct{}),
	})
}

// addHit registers a job born done with a cached body. The caller
// retires it.
func (st *jobStore) addHit(format string, cells int, info sweepcli.ModelInfo, key string, ent cache.Entry) *Job {
	now := time.Now()
	return st.register(&Job{
		Key:         key,
		Format:      format,
		Model:       info.Name,
		state:       StateDone,
		body:        ent.Body,
		contentType: ent.ContentType,
		cacheHit:    true,
		created:     now,
		finished:    now,
		cellsTotal:  cells,
		done:        closedDone,
	})
}

func (st *jobStore) register(j *Job) *Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.seq++
	j.ID = fmt.Sprintf("j%06d", st.seq)
	st.jobs[j.ID] = j
	st.ids = append(st.ids, j.ID)
	return j
}

// retire enters a job that has just reached a terminal state into the
// retention limits and returns how many finished jobs it evicted.
func (st *jobStore) retire(j *Job) (evicted int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.finished = append(st.finished, j)
	st.bodyBytes += j.bodyLen()
	for len(st.finished) > st.maxFinished {
		old := st.finished[0]
		st.finished[0] = nil
		st.finished = st.finished[1:]
		if st.dropped > 0 {
			st.dropped--
		} else {
			st.bodyBytes -= old.bodyLen()
		}
		delete(st.jobs, old.ID)
		evicted++
	}
	for st.bodyBytes > st.maxBodyBytes && st.dropped < len(st.finished)-1 {
		st.bodyBytes -= st.finished[st.dropped].dropBody()
		st.dropped++
	}
	st.compactLocked()
	return evicted
}

// remove forgets a job that was never admitted (queue rejection after
// creation), so rejected submissions don't appear in listings.
func (st *jobStore) remove(id string) {
	st.mu.Lock()
	defer st.mu.Unlock()
	delete(st.jobs, id)
	st.compactLocked()
}

// compactLocked drops forgotten IDs from the admission order once they
// make up most of it, so ids stays proportional to the retained jobs.
func (st *jobStore) compactLocked() {
	if len(st.ids) < 2*len(st.jobs)+64 {
		return
	}
	kept := st.ids[:0]
	for _, id := range st.ids {
		if _, ok := st.jobs[id]; ok {
			kept = append(kept, id)
		}
	}
	clear(st.ids[len(kept):])
	st.ids = kept
}

// get looks a job up by ID.
func (st *jobStore) get(id string) (*Job, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	j, ok := st.jobs[id]
	return j, ok
}

// list snapshots the retained jobs in admission order.
func (st *jobStore) list() []*Job {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*Job, 0, len(st.jobs))
	for _, id := range st.ids {
		if j, ok := st.jobs[id]; ok {
			out = append(out, j)
		}
	}
	return out
}

// countByState tallies job states for /metrics.
func (st *jobStore) countByState() map[string]int {
	counts := map[string]int{
		StateQueued: 0, StateRunning: 0, StateDone: 0, StateFailed: 0, StateCanceled: 0,
	}
	for _, j := range st.list() {
		counts[j.State()]++
	}
	return counts
}
