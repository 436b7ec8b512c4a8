package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/sweepcli"
)

// testSpec is a small real sweep used across tests.
func testSpec(seed int64) sweepcli.Spec {
	return sweepcli.Spec{
		Model:      "cache",
		Axes:       []string{"DHitRatio=0.5,0.9"},
		Reps:       2,
		Seed:       seed,
		Horizon:    200,
		Throughput: []string{"Issue"},
	}
}

// newTestServer starts a server (runner pool + HTTP) and registers
// cleanup that drains it.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

// blockingRun installs a scripted runFn: each run announces itself on
// started and blocks until release is closed (or its context ends).
func blockingRun(s *Server) (started chan *Job, release chan struct{}) {
	started = make(chan *Job, 16)
	release = make(chan struct{})
	s.runFn = func(ctx context.Context, j *Job) ([]byte, string, int64, error) {
		started <- j
		select {
		case <-release:
			return []byte("fake-body\n"), "text/plain", 7, nil
		case <-ctx.Done():
			return nil, "", 0, ctx.Err()
		}
	}
	return started, release
}

func submit(t *testing.T, ts *httptest.Server, spec sweepcli.Spec, query string, hdr map[string]string) *http.Response {
	t.Helper()
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs"+query, bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeJob(t *testing.T, resp *http.Response) JobView {
	t.Helper()
	defer resp.Body.Close()
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitState(t *testing.T, j *Job, want string) {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		if j.State() == want {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("job %s stuck in %s, want %s", j.ID, j.State(), want)
		case <-time.After(time.Millisecond):
		}
	}
}

// TestServeSweepByteIdentical is the end-to-end acceptance path: a
// sweep submitted over HTTP returns byte-for-byte what the engine (and
// so pnut-sweep) writes for the same grid, and resubmitting is served
// from the result cache without re-running.
func TestServeSweepByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheBytes: 1 << 20, Workers: 2})

	spec := testSpec(11)
	opt, _, err := spec.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := experiment.Sweep(context.Background(), opt)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := direct.WriteCSV(&want); err != nil {
		t.Fatal(err)
	}

	resp := submit(t, ts, spec, "?wait=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Pnut-Cache"); got != "miss" {
		t.Fatalf("cold submit X-Pnut-Cache = %q, want miss", got)
	}
	var got bytes.Buffer
	got.ReadFrom(resp.Body)
	resp.Body.Close()
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("served CSV differs from direct sweep:\nserved:\n%s\ndirect:\n%s", got.String(), want.String())
	}

	// Resubmit: served from cache, byte-identical.
	resp2 := submit(t, ts, spec, "?wait=1", nil)
	if got := resp2.Header.Get("X-Pnut-Cache"); got != "hit" {
		t.Fatalf("warm submit X-Pnut-Cache = %q, want hit", got)
	}
	var warm bytes.Buffer
	warm.ReadFrom(resp2.Body)
	resp2.Body.Close()
	if !bytes.Equal(warm.Bytes(), want.Bytes()) {
		t.Fatal("cached body differs from cold body")
	}
	if served := s.ctr.cacheServed.Load(); served != 1 {
		t.Fatalf("cacheServed = %d, want 1", served)
	}

	// An equivalent spelling of the same grid (range axis) also hits.
	alt := spec
	alt.Axes = []string{"DHitRatio=0.5:0.9:0.4"}
	resp3 := submit(t, ts, alt, "?wait=1", nil)
	if got := resp3.Header.Get("X-Pnut-Cache"); got != "hit" {
		t.Fatalf("equivalent-grid submit X-Pnut-Cache = %q, want hit", got)
	}
	resp3.Body.Close()

	// A different seed is a different address: misses, runs.
	other := testSpec(12)
	resp4 := submit(t, ts, other, "?wait=1", nil)
	if got := resp4.Header.Get("X-Pnut-Cache"); got != "miss" {
		t.Fatalf("different-seed submit X-Pnut-Cache = %q, want miss", got)
	}
	resp4.Body.Close()
}

// TestStoreSharesCacheEntry: graphs are bit-identical for every spill
// budget by contract, so the budget is not part of a job's grid. A
// reach job run in memory and resubmitted with a spill budget is the
// same address: the second reply is a cache hit with the same body.
func TestStoreSharesCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheBytes: 1 << 20, Workers: 2})
	net, err := os.ReadFile("../../testdata/mutex.pn")
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepcli.Spec{
		Net:    string(net),
		Engine: "reach",
		Bound:  []string{"lock"},
		Ctl:    []string{"AG(EF({crit_a == 1}))"},
		Format: "csv",
	}
	var bodies [2]bytes.Buffer
	for i, want := range []string{"miss", "hit"} {
		resp := submit(t, ts, spec, "?wait=1", nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("spill budget %d: status %d", spec.SpillBudget, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Pnut-Cache"); got != want {
			t.Fatalf("spill budget %d: X-Pnut-Cache = %q, want %q", spec.SpillBudget, got, want)
		}
		bodies[i].ReadFrom(resp.Body)
		resp.Body.Close()
		spec.SpillBudget = 1024
		t.Setenv("TMPDIR", t.TempDir())
	}
	if !bytes.Equal(bodies[0].Bytes(), bodies[1].Bytes()) {
		t.Fatalf("spill reply differs from mem reply:\n%s\nvs\n%s", bodies[1].String(), bodies[0].String())
	}
}

// TestCancelQueuedFreesSlot: canceling a queued job releases its queue
// slot, and canceling the running job lets the next one start.
func TestCancelQueuedFreesSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{RunJobs: 1, QueueDepth: 2})
	started, release := blockingRun(s)
	defer close(release)

	rA := decodeJob(t, submit(t, ts, testSpec(1), "", nil))
	jA := <-started
	if jA.ID != rA.ID {
		t.Fatalf("running job %s, submitted %s", jA.ID, rA.ID)
	}
	rB := decodeJob(t, submit(t, ts, testSpec(2), "", nil))
	jB, _ := s.store.get(rB.ID)

	// Cancel the queued job: it goes terminal immediately.
	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+rB.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if v := decodeJob(t, resp); v.State != StateCanceled {
		t.Fatalf("canceled queued job state %q", v.State)
	}
	select {
	case <-jB.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("canceled queued job never reached a terminal state")
	}

	// Its slot is free: a third job can be queued even though B never ran.
	rC := decodeJob(t, submit(t, ts, testSpec(3), "", nil))

	// Cancel the running job: the runner observes its context and moves
	// on to C.
	req, _ = http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+rA.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}
	waitState(t, jA, StateCanceled)
	jC := <-started
	if jC.ID != rC.ID {
		t.Fatalf("runner picked %s after cancel, want %s", jC.ID, rC.ID)
	}
	// B must never have started.
	if jB.State() != StateCanceled {
		t.Fatalf("queued-then-canceled job state %q", jB.State())
	}
}

// TestDrain: once draining, new submissions get 503 while the running
// job completes; Drain returns only after it does.
func TestDrain(t *testing.T) {
	s := New(Config{RunJobs: 1, QueueDepth: 2})
	started, release := blockingRun(s)
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rA := decodeJob(t, submit(t, ts, testSpec(1), "", nil))
	jA, _ := s.store.get(rA.ID)
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New work is refused while draining.
	resp := submit(t, ts, testSpec(2), "", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: status %d, want 503", hz.StatusCode)
	}
	hz.Body.Close()

	// Drain has not returned: the admitted job is still running.
	select {
	case err := <-drained:
		t.Fatalf("drain returned %v before the running job finished", err)
	case <-time.After(50 * time.Millisecond):
	}

	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if jA.State() != StateDone {
		t.Fatalf("job after drain: %q, want done", jA.State())
	}
}

// TestRateLimiterIsolatesClients: one client exhausting its bucket
// does not affect another, and the denial carries Retry-After.
func TestRateLimiterIsolatesClients(t *testing.T) {
	s, ts := newTestServer(t, Config{RatePerSec: 0.001, Burst: 2, QueueDepth: 16})
	started, release := blockingRun(s)
	defer close(release)
	go func() {
		for range started {
		}
	}()

	alice := map[string]string{"X-Pnut-Client": "alice"}
	bob := map[string]string{"X-Pnut-Client": "bob"}
	for i := 0; i < 2; i++ {
		resp := submit(t, ts, testSpec(int64(10+i)), "", alice)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("alice submit %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp := submit(t, ts, testSpec(20), "", alice)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("alice over budget: status %d, want 429", resp.StatusCode)
	}
	retry, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || retry < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()

	bobResp := submit(t, ts, testSpec(30), "", bob)
	if bobResp.StatusCode != http.StatusAccepted {
		t.Fatalf("bob (fresh client) got %d, want 202", bobResp.StatusCode)
	}
	bobResp.Close = true
	bobResp.Body.Close()
}

// TestQueueFull: the bounded queue rejects with 429 + Retry-After once
// runner slots and queue slots are taken.
func TestQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{RunJobs: 1, QueueDepth: 1})
	started, release := blockingRun(s)
	defer close(release)

	submit(t, ts, testSpec(1), "", nil).Body.Close() // running
	<-started
	submit(t, ts, testSpec(2), "", nil).Body.Close() // queued
	resp := submit(t, ts, testSpec(3), "", nil)      // no room
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full rejection has no Retry-After")
	}
	resp.Body.Close()
	// The rejected job left no trace in the listing.
	listResp, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	var views []JobView
	if err := json.NewDecoder(listResp.Body).Decode(&views); err != nil {
		t.Fatal(err)
	}
	listResp.Body.Close()
	if len(views) != 2 {
		t.Fatalf("listing has %d jobs, want 2", len(views))
	}
}

// TestJoinInflight: an identical submission while the first is still
// computing attaches to the same job instead of queueing a duplicate.
func TestJoinInflight(t *testing.T) {
	s, ts := newTestServer(t, Config{RunJobs: 1, QueueDepth: 4, CacheBytes: 1 << 20})
	started, release := blockingRun(s)

	first := submit(t, ts, testSpec(1), "", nil)
	firstView := decodeJob(t, first)
	<-started
	second := submit(t, ts, testSpec(1), "", nil)
	if got := second.Header.Get("X-Pnut-Cache"); got != "join" {
		t.Fatalf("duplicate submit X-Pnut-Cache = %q, want join", got)
	}
	secondView := decodeJob(t, second)
	if secondView.ID != firstView.ID {
		t.Fatalf("duplicate got its own job %s, want %s", secondView.ID, firstView.ID)
	}
	close(release)
	j, _ := s.store.get(firstView.ID)
	waitState(t, j, StateDone)
}

// TestSSEEvents: the event stream carries a state snapshot and the
// terminal transition.
func TestSSEEvents(t *testing.T) {
	s, ts := newTestServer(t, Config{RunJobs: 1, QueueDepth: 4})
	started, release := blockingRun(s)

	view := decodeJob(t, submit(t, ts, testSpec(1), "", nil))
	<-started

	resp, err := http.Get(ts.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q", ct)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		close(release)
	}()
	sawDone := false
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") && strings.Contains(line, `"state":"done"`) {
			sawDone = true
			break
		}
	}
	if !sawDone {
		t.Fatal("SSE stream ended without a done state event")
	}
}

// TestSubmitValidation: admission rejects malformed and oversized work
// before any simulation runs.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBody: 512, MaxCells: 8})

	post := func(body string) *http.Response {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	cases := map[string]struct {
		body string
		want int
	}{
		"not json":      {"pnut", http.StatusBadRequest},
		"unknown field": {`{"modle":"cache"}`, http.StatusBadRequest},
		"bad model":     {`{"model":"nope","throughput":["Issue"]}`, http.StatusBadRequest},
		"no metrics":    {`{"model":"cache"}`, http.StatusBadRequest},
		"bad format":    {`{"model":"cache","throughput":["Issue"],"format":"xml"}`, http.StatusBadRequest},
		"grid too big": {`{"model":"cache","axes":["DHitRatio=0:1:0.1"],"reps":3,"throughput":["Issue"]}`,
			http.StatusBadRequest},
		"grid overflows int": {`{"model":"cache","axes":["DHitRatio=0:65535:1","IHitRatio=0:65535:1","MemoryCycles=0:65535:1","HitCycles=0:65535:1"],"throughput":["Issue"]}`,
			http.StatusBadRequest},
		"negative spill budget": {`{"model":"cache","axes":["DHitRatio=0,1"],"engine":"reach","spillBudget":-1}`,
			http.StatusBadRequest},
		"NaN axis value": {`{"model":"cache","axes":["DHitRatio=NaN"],"reps":2,"horizon":500,"throughput":["Issue"]}`,
			http.StatusBadRequest},
		"infinite adaptive target": {`{"model":"cache","axes":["DHitRatio=0.5"],"adaptive":"throughput(Issue):Inf","minReps":2,"maxReps":4,"throughput":["Issue"]}`,
			http.StatusBadRequest},
		"store field": {`{"model":"cache","axes":["DHitRatio=0,1"],"engine":"reach","store":"spill"}`,
			http.StatusBadRequest},
		"body too big": {fmt.Sprintf(`{"net":%q,"throughput":["Issue"]}`, strings.Repeat("x", 600)),
			http.StatusRequestEntityTooLarge},
	}
	for name, tc := range cases {
		resp := post(tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", name, resp.StatusCode, tc.want)
		}
		resp.Body.Close()
	}

	if resp, err := http.Get(ts.URL + "/v1/jobs/nope"); err != nil {
		t.Fatal(err)
	} else {
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// TestMetricsEndpoint: counters and gauges reflect a served job.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheBytes: 1 << 20, Workers: 2})
	submit(t, ts, testSpec(5), "?wait=1", nil).Body.Close()
	submit(t, ts, testSpec(5), "?wait=1", nil).Body.Close() // cache hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var m metricsView
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Jobs.Submitted != 2 || m.Jobs.Done != 2 {
		t.Fatalf("jobs submitted=%d done=%d, want 2/2", m.Jobs.Submitted, m.Jobs.Done)
	}
	if m.Cache.Hits != 1 || m.Cache.Served != 1 {
		t.Fatalf("cache hits=%d served=%d, want 1/1", m.Cache.Hits, m.Cache.Served)
	}
	if m.Sim.Events <= 0 || m.Sim.Cells != 4 {
		t.Fatalf("sim events=%d cells=%d, want >0 and 4", m.Sim.Events, m.Sim.Cells)
	}
	if m.Queue.Capacity < 1 {
		t.Fatalf("queue capacity %d", m.Queue.Capacity)
	}
}

// TestCancelInterruptsReachBuild: DELETE on a running reach job
// interrupts the state-space construction mid-build — the job context
// threads through the engine into reach.Build, which observes it at
// the next window barrier. The net grows without bound and MaxStates is
// far beyond what the test could ever explore, so only cancellation
// can end the job; the spill store's temp file must be gone afterwards.
func TestCancelInterruptsReachBuild(t *testing.T) {
	s, ts := newTestServer(t, Config{RunJobs: 1, QueueDepth: 1, Workers: 1, MaxStates: 30_000_000})
	spillDir := t.TempDir()
	t.Setenv("TMPDIR", spillDir)
	spec := sweepcli.Spec{
		Net: `net unbounded_branch
place src init 1
place a
place b
trans grow_a
  in src
  out src, a
trans grow_b
  in src
  out src, b
`,
		Engine:      "reach",
		MaxStates:   30_000_000,
		SpillBudget: 1 << 16,
	}
	r := decodeJob(t, submit(t, ts, spec, "", nil))
	j, ok := s.store.get(r.ID)
	if !ok {
		t.Fatalf("submitted job %s not in store", r.ID)
	}
	waitState(t, j, StateRunning)

	req, _ := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+r.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, j, StateCanceled)

	// The interrupted build closed its store: no spill file survives.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	s.Drain(ctx)
	ents, err := os.ReadDir(spillDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("canceled reach job left %d spill files", len(ents))
	}
}
