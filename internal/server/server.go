// Package server is the simulation service: an HTTP daemon that
// accepts sweep jobs (a model plus the declarative sweepcli.Spec),
// runs them on the deterministic experiment engine — in-process, or
// fanned out over worker processes when a worker command is configured
// — and serves the rendered results.
//
// Production concerns live here, not in the engine: a bounded FIFO job
// queue with per-client token-bucket rate limiting and admission
// control (429 + Retry-After when saturated, 503 while draining), a
// content-addressed result cache (see the cache subpackage) that
// serves a resubmitted sweep without re-running it, job cancellation,
// SSE progress streams, and graceful drain — stop admitting, finish
// what's running, then shut the listener down.
//
// API:
//
//	POST   /v1/jobs            submit a spec (JSON body); ?wait=1 blocks
//	                           and responds with the result body itself
//	GET    /v1/jobs            list retained jobs
//	GET    /v1/jobs/{id}        job status JSON
//	DELETE /v1/jobs/{id}        cancel (queued: immediate; running: ctx)
//	GET    /v1/jobs/{id}/result rendered result; ?wait=1 blocks
//	GET    /v1/jobs/{id}/events SSE progress/state stream
//	GET    /healthz             200 ok / 503 draining
//	GET    /metrics             counters + gauges JSON
//
// Every submission response carries X-Pnut-Job (the job ID) and
// X-Pnut-Cache: hit (served from the result cache), join (attached to
// an identical job already in flight) or miss.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/experiment"
	"repro/internal/reach"
	"repro/internal/server/cache"
	"repro/internal/sweepcli"
)

// Config shapes a Server. Zero values take the documented defaults.
type Config struct {
	// QueueDepth bounds the admitted-but-not-running FIFO (default 16).
	QueueDepth int
	// RunJobs is the number of jobs simulated concurrently (default 1:
	// one sweep at a time, each using Workers goroutines).
	RunJobs int
	// Workers caps a job's worker goroutines when its spec doesn't set
	// parallel; 0 means the engine default (GOMAXPROCS).
	Workers int
	// RatePerSec and Burst shape the per-client token bucket; a rate of
	// 0 disables rate limiting.
	RatePerSec float64
	Burst      float64
	// CacheBytes bounds the content-addressed result cache; 0 disables
	// caching.
	CacheBytes int64
	// WorkerCmd, when non-empty, runs jobs through the distributed
	// coordinator with this command as the per-shard worker, which gets
	// the job's spec on stdin; Procs is the shard count.
	WorkerCmd string
	Procs     int
	// MaxBody bounds a submission body (default 1 MiB); MaxCells bounds
	// a job's grid (default 1_000_000 cells); MaxStates bounds the
	// state space a reach or analytic job may explore per grid point
	// (default 1_000_000 states).
	MaxBody   int64
	MaxCells  int
	MaxStates int
	// Log, when non-nil, receives server and coordinator progress lines.
	Log io.Writer
}

// Server runs sweep jobs behind the HTTP API. Create with New, start
// the runner pool with Start, serve Handler, stop with Drain.
type Server struct {
	cfg     Config
	store   *jobStore
	queue   *jobQueue
	limiter *rateLimiter
	cache   *cache.Cache
	ctr     counters
	started time.Time
	mux     *http.ServeMux

	// inflight dedups identical submissions: cache key -> the job that
	// is computing it (queued or running).
	mu       sync.Mutex
	inflight map[string]*Job

	draining   atomic.Bool
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	// runFn computes one job; tests inject stubs to script lifecycle
	// timing without running simulations.
	runFn func(ctx context.Context, j *Job) (body []byte, contentType string, events int64, err error)
}

// New builds a Server; call Start before serving traffic.
func New(cfg Config) *Server {
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 16
	}
	if cfg.RunJobs < 1 {
		cfg.RunJobs = 1
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = 1 << 20
	}
	if cfg.MaxCells < 1 {
		cfg.MaxCells = 1_000_000
	}
	if cfg.MaxStates < 1 {
		cfg.MaxStates = 1_000_000
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		store:      newJobStore(),
		queue:      newJobQueue(cfg.QueueDepth),
		limiter:    newRateLimiter(cfg.RatePerSec, cfg.Burst),
		cache:      cache.New(cfg.CacheBytes),
		started:    time.Now(),
		mux:        http.NewServeMux(),
		inflight:   make(map[string]*Job),
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.runFn = s.runSweep
	s.mux.HandleFunc("/v1/jobs", s.handleJobs)
	s.mux.HandleFunc("/v1/jobs/", s.handleJobByID)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Start launches the runner pool.
func (s *Server) Start() {
	for i := 0; i < s.cfg.RunJobs; i++ {
		s.wg.Add(1)
		go s.runner()
	}
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Draining reports whether drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully stops the server: admission is closed (new
// submissions get 503), already-admitted jobs run to completion, and
// Drain returns when the runner pool is idle. If ctx expires first the
// remaining jobs are canceled and ctx's error returned; the pool is
// fully stopped either way.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.close()
	s.logf("server: draining (%d queued)", s.queue.depth())
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.logf("server: drain complete")
		return nil
	case <-ctx.Done():
		s.baseCancel()
		<-done
		s.logf("server: drain deadline hit, in-flight jobs canceled")
		return ctx.Err()
	}
}

// runner is one slot of the job pool: it claims queued jobs in FIFO
// order and finalizes their state. It exits when the queue is closed
// and drained.
func (s *Server) runner() {
	defer s.wg.Done()
	for j := range s.queue.jobs() {
		ctx, cancel := context.WithCancel(s.baseCtx)
		if !j.claimRunning(cancel) {
			// Canceled while queued; the slot is already free.
			cancel()
			continue
		}
		s.logf("server: job %s running (%s, %d cells)", j.ID, j.Model, j.cellsTotal)
		body, contentType, events, err := s.runFn(ctx, j)
		canceled := ctx.Err() != nil
		cancel()
		s.ctr.simEvents.Add(events)
		switch {
		case err == nil:
			s.cache.Put(j.Key, contentType, body)
			if j.finish(StateDone, body, contentType, "", events) {
				s.ctr.completed.Add(1)
			}
			s.logf("server: job %s done (%d events)", j.ID, events)
		case canceled:
			if j.finish(StateCanceled, nil, "", "canceled", events) {
				s.ctr.canceled.Add(1)
			}
			s.logf("server: job %s canceled", j.ID)
		default:
			if j.finish(StateFailed, nil, "", err.Error(), events) {
				s.ctr.failed.Add(1)
			}
			s.logf("server: job %s failed: %v", j.ID, err)
		}
		s.inflightRemove(j)
		s.retire(j)
	}
}

// runSweep is the production runFn: the in-process deterministic sweep,
// or the distributed coordinator when a worker command is configured.
// Progress flows through the engine's OnCell hook (in-process) or the
// coordinator's emit stream (distributed) into the job's SSE broker.
func (s *Server) runSweep(ctx context.Context, j *Job) ([]byte, string, int64, error) {
	run := j.runPart()
	opt := run.opt
	if opt.Workers == 0 {
		opt.Workers = s.cfg.Workers
	}
	total := j.cellsTotal
	var n atomic.Int64
	onCell := func() {
		s.ctr.cellsDone.Add(1)
		j.progress(int(n.Add(1)), total)
	}
	var (
		r   *experiment.SweepResult
		err error
	)
	if s.cfg.WorkerCmd != "" {
		r, err = s.runDist(ctx, run, opt, onCell)
	} else {
		opt.OnCell = func(experiment.Point, int) { onCell() }
		r, err = experiment.Sweep(ctx, opt)
	}
	if err != nil {
		return nil, "", 0, err
	}
	body, contentType, err := renderResult(r, j.Format)
	if err != nil {
		return nil, "", r.Events, err
	}
	return body, contentType, r.Events, nil
}

// runDist executes the job through the distributed coordinator. The
// workers get the job's spec, with the goroutine count defaulted as
// for an in-process run, as one JSON document on stdin; the
// coordinator appends the per-span -cells/-emit flags.
func (s *Server) runDist(ctx context.Context, run *jobRun, opt experiment.SweepOptions, onCell func()) (*experiment.SweepResult, error) {
	spec := run.spec
	spec.Parallel = opt.Workers
	job, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	meta := run.meta
	base, err := dist.NewExecRunner(strings.Fields(s.cfg.WorkerCmd), job, &meta, s.cfg.Log)
	if err != nil {
		return nil, err
	}
	counting := func(ctx context.Context, span dist.Span, emit func(experiment.CellRecord) error) error {
		return base(ctx, span, func(rec experiment.CellRecord) error {
			if err := emit(rec); err != nil {
				return err
			}
			onCell()
			return nil
		})
	}
	return dist.Execute(ctx, opt, dist.Options{
		Shards: s.cfg.Procs,
		Runner: counting,
		Meta:   &meta,
		Log:    s.cfg.Log,
	})
}

// ---- HTTP handlers ----

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSubmit(w, r)
	case http.MethodGet:
		jobs := s.store.list()
		views := make([]JobView, 0, len(jobs))
		for _, j := range jobs {
			views = append(views, j.View())
		}
		writeJSON(w, http.StatusOK, views)
	default:
		httpError(w, http.StatusMethodNotAllowed, "use POST to submit or GET to list")
	}
}

// handleSubmit is the admission path: draining gate, per-client rate
// limit, spec validation, cache lookup, in-flight dedup, queue bound —
// in that order, so a saturated server sheds load before any work.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.ctr.rejectedDraining.Add(1)
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if ok, wait := s.limiter.allow(clientKey(r)); !ok {
		s.ctr.rejectedRate.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int(math.Ceil(wait.Seconds()))))
		httpError(w, http.StatusTooManyRequests, "rate limit exceeded")
		return
	}

	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBody)
	spec, err := sweepcli.DecodeSpec(r.Body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("spec body over %d bytes", s.cfg.MaxBody))
			return
		}
		httpError(w, http.StatusBadRequest, "bad spec: "+err.Error())
		return
	}
	if spec.SpillDir != "" {
		// A client must not pick where the daemon writes: spill files
		// go to the server's temp dir.
		httpError(w, http.StatusBadRequest, "spillDir is not accepted by the server; spill files go to its temp dir")
		return
	}
	format, err := normalizeFormat(spec.Format)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	spec.Format = format
	opt, info, err := spec.Resolve()
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if cells := opt.NumCells(); cells > s.cfg.MaxCells {
		httpError(w, http.StatusBadRequest,
			fmt.Sprintf("grid of %d cells exceeds the server cap of %d", cells, s.cfg.MaxCells))
		return
	}
	meta := experiment.MetaOf(opt, info.Name)
	if meta.Engine != "" {
		states := meta.MaxStates
		if states <= 0 {
			states = reach.DefaultMaxStates
		}
		if states > s.cfg.MaxStates {
			httpError(w, http.StatusBadRequest,
				fmt.Sprintf("maxStates of %d exceeds the server cap of %d", states, s.cfg.MaxStates))
			return
		}
	}
	key := cache.Key(info.Digest, meta, format)

	if ent, ok := s.cache.Get(key); ok {
		j := s.store.addHit(format, opt.NumCells(), info, key, ent)
		s.retire(j)
		s.ctr.submitted.Add(1)
		s.ctr.cacheServed.Add(1)
		s.ctr.completed.Add(1)
		s.respondSubmitted(w, r, j, "hit")
		return
	}

	s.mu.Lock()
	if existing := s.inflight[key]; existing != nil {
		s.mu.Unlock()
		s.ctr.joined.Add(1)
		s.respondSubmitted(w, r, existing, "join")
		return
	}
	j := s.store.add(spec, format, opt, meta, info, key)
	s.inflight[key] = j
	s.mu.Unlock()

	if err := s.queue.enqueue(j); err != nil {
		s.inflightRemove(j)
		s.store.remove(j.ID)
		if errors.Is(err, errQueueClosed) {
			s.ctr.rejectedDraining.Add(1)
			httpError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		s.ctr.rejectedQueue.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(1+s.queue.depth()))
		httpError(w, http.StatusTooManyRequests, "job queue full")
		return
	}
	s.ctr.submitted.Add(1)
	s.respondSubmitted(w, r, j, "miss")
}

// respondSubmitted answers a submission: job JSON (202 while pending,
// 200 once done), or — with ?wait=1 — the result body itself once the
// job finishes.
func (s *Server) respondSubmitted(w http.ResponseWriter, r *http.Request, j *Job, cacheStatus string) {
	w.Header().Set("X-Pnut-Job", j.ID)
	w.Header().Set("X-Pnut-Cache", cacheStatus)
	if wantWait(r) {
		select {
		case <-j.Done():
			s.writeResult(w, j)
		case <-r.Context().Done():
		}
		return
	}
	status := http.StatusAccepted
	if j.State() != StateQueued && j.State() != StateRunning {
		status = http.StatusOK
	}
	writeJSON(w, status, j.View())
}

func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/v1/jobs/"), "/")
	j, ok := s.store.get(parts[0])
	if !ok {
		httpError(w, http.StatusNotFound, "no such job")
		return
	}
	switch {
	case len(parts) == 1:
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, j.View())
		case http.MethodDelete:
			s.cancelJob(j)
			writeJSON(w, http.StatusOK, j.View())
		default:
			httpError(w, http.StatusMethodNotAllowed, "use GET for status or DELETE to cancel")
		}
	case len(parts) == 2 && parts[1] == "result" && r.Method == http.MethodGet:
		if wantWait(r) {
			select {
			case <-j.Done():
			case <-r.Context().Done():
				return
			}
		}
		s.writeResult(w, j)
	case len(parts) == 2 && parts[1] == "events" && r.Method == http.MethodGet:
		s.handleEvents(w, r, j)
	default:
		httpError(w, http.StatusNotFound, "unknown job endpoint")
	}
}

// cancelJob cancels j and maintains the server-side bookkeeping for
// the queued case (the runner path handles the running case).
func (s *Server) cancelJob(j *Job) {
	terminal, _ := j.requestCancel()
	if terminal {
		s.ctr.canceled.Add(1)
		s.inflightRemove(j)
		s.retire(j)
	}
}

// writeResult serves a job's terminal result body. A done job whose
// body the store dropped is served from the result cache by its key,
// or answered 410 when the cache no longer holds it.
func (s *Server) writeResult(w http.ResponseWriter, j *Job) {
	body, contentType, cacheHit, ok, dropped := j.Result()
	if !ok {
		switch j.State() {
		case StateFailed:
			httpError(w, http.StatusInternalServerError, "job failed: "+j.View().Error)
		case StateCanceled:
			httpError(w, http.StatusGone, "job canceled")
		default:
			httpError(w, http.StatusConflict, "job not finished; poll status, stream /events or use ?wait=1")
		}
		return
	}
	if dropped {
		ent, hit := s.cache.Get(j.Key)
		if !hit {
			httpError(w, http.StatusGone, "result no longer retained; resubmit the spec")
			return
		}
		body, contentType = ent.Body, ent.ContentType
	}
	if cacheHit {
		w.Header().Set("X-Pnut-Cache", "hit")
	}
	w.Header().Set("Content-Type", contentType)
	w.Write(body)
}

// handleEvents streams the job's progress as Server-Sent Events: a
// "state" snapshot immediately, "progress" per completed cell, and a
// final "state" event when the job reaches a terminal state.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, j *Job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		httpError(w, http.StatusInternalServerError, "streaming unsupported")
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	emit := func(ev sseEvent) {
		fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.name, ev.data)
		fl.Flush()
	}
	var ch chan sseEvent
	sse, closed := j.broker(), true
	if sse != nil {
		ch, closed = sse.subscribe()
	}
	emit(sseEvent{name: "state", data: mustJSON(j.View())})
	if closed {
		return
	}
	defer sse.unsubscribe(ch)
	for {
		select {
		case <-r.Context().Done():
			return
		case ev, live := <-ch:
			if !live {
				emit(sseEvent{name: "state", data: mustJSON(j.View())})
				return
			}
			emit(ev)
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var m metricsView
	m.UptimeSeconds = time.Since(s.started).Seconds()
	m.Draining = s.draining.Load()
	m.Queue.Depth = s.queue.depth()
	m.Queue.Capacity = s.queue.capacity()
	states := s.store.countByState()
	m.Jobs.Queued = states[StateQueued]
	m.Jobs.Running = states[StateRunning]
	m.Jobs.Done = states[StateDone]
	m.Jobs.Failed = states[StateFailed]
	m.Jobs.Canceled = states[StateCanceled]
	m.Jobs.Submitted = s.ctr.submitted.Load()
	m.Jobs.Completed = s.ctr.completed.Load()
	m.Jobs.Joined = s.ctr.joined.Load()
	m.Jobs.Evicted = s.ctr.evicted.Load()
	hits, misses, entries, bytes := s.cache.Stats()
	m.Cache.Hits, m.Cache.Misses = hits, misses
	if total := hits + misses; total > 0 {
		m.Cache.HitRate = float64(hits) / float64(total)
	}
	m.Cache.Entries, m.Cache.Bytes = entries, bytes
	m.Cache.Served = s.ctr.cacheServed.Load()
	m.Rejected.RateLimit = s.ctr.rejectedRate.Load()
	m.Rejected.QueueFull = s.ctr.rejectedQueue.Load()
	m.Rejected.Draining = s.ctr.rejectedDraining.Load()
	m.Sim.Events = s.ctr.simEvents.Load()
	if up := m.UptimeSeconds; up > 0 {
		m.Sim.EventsPerSec = float64(m.Sim.Events) / up
	}
	m.Sim.Cells = s.ctr.cellsDone.Load()
	writeJSON(w, http.StatusOK, m)
}

// ---- helpers ----

// retire hands a job that has just reached a terminal state to the
// store's retention limits.
func (s *Server) retire(j *Job) {
	s.ctr.evicted.Add(int64(s.store.retire(j)))
}

func (s *Server) inflightRemove(j *Job) {
	s.mu.Lock()
	if s.inflight[j.Key] == j {
		delete(s.inflight, j.Key)
	}
	s.mu.Unlock()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		fmt.Fprintf(s.cfg.Log, format+"\n", args...)
	}
}

// clientKey identifies the submitting client for rate limiting: the
// X-Pnut-Client header when present (proxies, tests), else the remote
// host.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-Pnut-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

func wantWait(r *http.Request) bool {
	v := r.URL.Query().Get("wait")
	return v != "" && v != "0"
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
