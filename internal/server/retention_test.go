package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/sweepcli"
)

// heapAfterGC is the live heap once garbage has been collected.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// serve runs one request through the handler in-process.
func serve(s *Server, method, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec
}

// postSpec submits spec in-process and fails the test on an
// unexpected status.
func postSpec(t *testing.T, s *Server, spec sweepcli.Spec, query string, want int) *httptest.ResponseRecorder {
	t.Helper()
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := serve(s, "POST", "/v1/jobs"+query, blob)
	if rec.Code != want {
		t.Fatalf("submit seed %d: status %d, want %d: %s", spec.Seed, rec.Code, want, rec.Body.String())
	}
	return rec
}

// finishedCount reports how many finished jobs the store retains and
// how many jobs it tracks in all.
func (st *jobStore) finishedCount() (finished, all int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.finished), len(st.jobs)
}

// Stub behaviors, selected by a spec's seed modulo stubKinds.
const (
	stubKinds  = 10
	stubFail   = 7 // the run fails
	stubCancel = 9 // the run blocks until canceled
)

// stubRun is a runFn that simulates nothing: it renders the seed into
// a body of the given size, fails, or blocks until its context ends,
// as the spec's seed selects.
func stubRun(size int) func(ctx context.Context, j *Job) ([]byte, string, int64, error) {
	return func(ctx context.Context, j *Job) ([]byte, string, int64, error) {
		seed := j.runPart().spec.Seed
		switch seed % stubKinds {
		case stubFail:
			return nil, "", 1, errors.New("stub failure")
		case stubCancel:
			<-ctx.Done()
			return nil, "", 0, ctx.Err()
		}
		return stubBody(seed, size), "text/plain", 3, nil
	}
}

// stubServer starts a server whose runs are stubRun(size), after
// prep has adjusted it. Cleanup drains it, canceling what still runs.
func stubServer(t *testing.T, cfg Config, size int, prep func(*Server)) *Server {
	t.Helper()
	s := New(cfg)
	s.runFn = stubRun(size)
	if prep != nil {
		prep(s)
	}
	s.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		s.Drain(ctx)
	})
	return s
}

func stubBody(seed int64, size int) []byte {
	b := bytes.Repeat([]byte{'.'}, size)
	copy(b, fmt.Sprintf("seed %d\n", seed))
	return b
}

// TestRetainedBytesPerJob: a finished cache-hit job keeps only its
// status record. 2,000 ?wait=1 hits of one spec grow the live heap by
// less than 1 KB per retained job.
func TestRetainedBytesPerJob(t *testing.T) {
	const jobs = 2000
	s, ts := newTestServer(t, Config{CacheBytes: 1 << 20, Workers: 1})
	spec := testSpec(11)
	submit(t, ts, spec, "?wait=1", nil).Body.Close() // the miss fills the cache
	submit(t, ts, spec, "?wait=1", nil).Body.Close() // warm the hit path
	before := heapAfterGC()
	for i := 0; i < jobs; i++ {
		resp := submit(t, ts, spec, "?wait=1", nil)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Pnut-Cache") != "hit" {
			t.Fatalf("job %d: status %d, cache %q", i, resp.StatusCode, resp.Header.Get("X-Pnut-Cache"))
		}
		resp.Body.Close()
	}
	grown := int64(heapAfterGC()) - int64(before)
	_, retained := s.store.finishedCount()
	perJob := float64(grown) / jobs
	perRetained := float64(grown) / float64(min(retained, jobs))
	t.Logf("heap grew %d B over %d jobs: %.0f B/job, %.0f B per retained job (%d retained)",
		grown, jobs, perJob, perRetained, retained)
	if perRetained >= 1024 {
		t.Fatalf("%.0f B retained per finished job, want < 1 KB", perRetained)
	}
}

// TestSoakBoundedRetention runs 20,000 mixed jobs — cache hits, misses
// on a stub run, failures and cancels — through the admission path.
// The store never holds more finished jobs than its cap, and the live
// heap at the end stays within a fixed bound of its value after the
// first 2,000 jobs, checked every 2,000 jobs.
func TestSoakBoundedRetention(t *testing.T) {
	jobs, warm := 20_000, 2_000
	if testing.Short() {
		jobs, warm = 4_000, 2_000
	}
	const heapSlack = 1 << 20
	s := stubServer(t, Config{RunJobs: 1, QueueDepth: 4, CacheBytes: 64 << 10}, 512, nil)

	fresh := int64(100)
	next := func(kind int64) int64 {
		for fresh%stubKinds != kind {
			fresh++
		}
		fresh++
		return fresh - 1
	}
	var base uint64
	for i := 0; i < jobs; i++ {
		switch i % 8 {
		case 0, 1, 2, 3: // popular: a hit once the first run is cached
			postSpec(t, s, testSpec(int64(1+i%3)), "?wait=1", http.StatusOK)
		case 4, 5: // a fresh miss
			postSpec(t, s, testSpec(next(0)), "?wait=1", http.StatusOK)
		case 6:
			postSpec(t, s, testSpec(next(stubFail)), "?wait=1", http.StatusInternalServerError)
		case 7:
			var v JobView
			rec := postSpec(t, s, testSpec(next(stubCancel)), "", http.StatusAccepted)
			if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
				t.Fatal(err)
			}
			j, ok := s.store.get(v.ID)
			if !ok {
				t.Fatalf("job %s not in store", v.ID)
			}
			if rec := serve(s, "DELETE", "/v1/jobs/"+v.ID, nil); rec.Code != http.StatusOK {
				t.Fatalf("cancel %s: status %d", v.ID, rec.Code)
			}
			<-j.Done()
			if st := j.State(); st != StateCanceled {
				t.Fatalf("canceled job %s is %s", v.ID, st)
			}
		}
		if finished, all := s.store.finishedCount(); finished > retainJobs || all > retainJobs+s.cfg.RunJobs+s.cfg.QueueDepth {
			t.Fatalf("after job %d the store holds %d finished of %d jobs, cap %d", i, finished, all, retainJobs)
		}
		if (i+1)%warm != 0 {
			continue
		}
		heap := heapAfterGC()
		if i+1 == warm {
			base = heap
		}
		if heap > base+heapSlack {
			t.Fatalf("live heap grew from %d B after job %d to %d B after job %d, want < %d B growth", base, warm, heap, i+1, heapSlack)
		}
		if i+1 == jobs {
			t.Logf("live heap %d B after %d jobs, %d B after %d (%d evicted)", base, warm, heap, jobs, s.ctr.evicted.Load())
		}
	}
	if got, want := s.ctr.evicted.Load(), int64(jobs-retainJobs); got != want {
		t.Fatalf("evicted %d jobs, want %d", got, want)
	}
}

// TestEvictOldestFinishedFirst: past the cap the oldest finished job
// goes first; queued and running jobs are never evicted, the job that
// has just finished always stays, and an evicted ID answers 404.
func TestEvictOldestFinishedFirst(t *testing.T) {
	s := stubServer(t, Config{RunJobs: 2, QueueDepth: 4, CacheBytes: 1 << 20}, 64,
		func(s *Server) { s.store.maxFinished = 3 })
	id := func(rec *httptest.ResponseRecorder) string { return rec.Header().Get("X-Pnut-Job") }
	status := func(id string) int { return serve(s, "GET", "/v1/jobs/"+id, nil).Code }

	var done []string
	for seed := int64(1); seed <= 3; seed++ {
		done = append(done, id(postSpec(t, s, testSpec(seed), "?wait=1", http.StatusOK)))
	}
	// Two running jobs and one queued behind them.
	var active []string
	for i := 0; i < 3; i++ {
		rec := postSpec(t, s, testSpec(int64(10*i+stubCancel)), "", http.StatusAccepted)
		active = append(active, id(rec))
	}
	for _, a := range active[:2] {
		j, _ := s.store.get(a)
		waitState(t, j, StateRunning)
	}

	// Each cache hit is a job born done: it evicts the oldest finished.
	var hits []string
	for i := 0; i < 5; i++ {
		hits = append(hits, id(postSpec(t, s, testSpec(int64(1+i%3)), "?wait=1", http.StatusOK)))
		finished := append(append([]string(nil), done...), hits...)
		for k, f := range finished {
			want := http.StatusOK
			if k < len(finished)-3 {
				want = http.StatusNotFound
			}
			if got := status(f); got != want {
				t.Fatalf("after hit %d: job %s status %d, want %d", i, f, got, want)
			}
		}
		for _, a := range active {
			if got := status(a); got != http.StatusOK {
				t.Fatalf("active job %s evicted: status %d", a, got)
			}
		}
	}
	var views []JobView
	if err := json.Unmarshal(serve(s, "GET", "/v1/jobs", nil).Body.Bytes(), &views); err != nil {
		t.Fatal(err)
	}
	var listed []string
	for _, v := range views {
		listed = append(listed, v.ID)
	}
	if want := append(append([]string(nil), active...), hits[2:]...); strings.Join(listed, ",") != strings.Join(want, ",") {
		t.Fatalf("listing %v, want %v", listed, want)
	}

	// Cancel the queued job, then a running one: each just-finished job
	// stays while the oldest finished goes.
	for _, a := range []string{active[2], active[0]} {
		j, _ := s.store.get(a)
		serve(s, "DELETE", "/v1/jobs/"+a, nil)
		<-j.Done()
		waitRetained(t, s, a)
	}
	if got := status(hits[2]); got != http.StatusNotFound {
		t.Fatalf("oldest retained hit %s: status %d after two more finished, want 404", hits[2], got)
	}
	if got, want := s.ctr.evicted.Load(), int64(7); got != want {
		t.Fatalf("evicted counter %d, want %d", got, want)
	}
}

// waitRetained waits until the store has retired job id — it is the
// newest finished job.
func waitRetained(t *testing.T, s *Server, id string) {
	t.Helper()
	for i := 0; ; i++ {
		s.store.mu.Lock()
		n := len(s.store.finished)
		last := n > 0 && s.store.finished[n-1].ID == id
		s.store.mu.Unlock()
		if last {
			return
		}
		if i == 10_000 {
			t.Fatalf("job %s never retired", id)
		}
		runtime.Gosched()
	}
}

// TestRetainDroppedBody: once finished bodies exceed the byte budget
// the oldest body is dropped but its record stays; its result then
// comes from the cache by key, or 410 once the cache lost it too.
func TestRetainDroppedBody(t *testing.T) {
	for _, cacheBytes := range []int64{1 << 20, 0} {
		t.Run(fmt.Sprintf("cache=%d", cacheBytes), func(t *testing.T) {
			s := stubServer(t, Config{CacheBytes: cacheBytes}, 64,
				func(s *Server) { s.store.maxBodyBytes = 100 })

			first := postSpec(t, s, testSpec(1), "?wait=1", http.StatusOK).Header().Get("X-Pnut-Job")
			postSpec(t, s, testSpec(2), "?wait=1", http.StatusOK)
			j, _ := s.store.get(first)
			if _, _, _, ok, dropped := j.Result(); !ok || !dropped {
				t.Fatalf("first job result ok=%v dropped=%v, want its body dropped", ok, dropped)
			}
			if rec := serve(s, "GET", "/v1/jobs/"+first, nil); rec.Code != http.StatusOK {
				t.Fatalf("status of a job with a dropped body: %d", rec.Code)
			}
			rec := serve(s, "GET", "/v1/jobs/"+first+"/result", nil)
			if cacheBytes > 0 {
				if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), stubBody(1, 64)) {
					t.Fatalf("dropped body from cache: status %d body %q", rec.Code, rec.Body.String())
				}
				return
			}
			if rec.Code != http.StatusGone || !strings.Contains(rec.Body.String(), "resubmit the spec") {
				t.Fatalf("dropped body without cache: status %d body %q, want 410", rec.Code, rec.Body.String())
			}
		})
	}
}

// TestRetainOversizedBody: a job whose body alone exceeds the byte
// budget is the job that has just finished, so ?wait=1 and a later
// result fetch still return its whole body.
func TestRetainOversizedBody(t *testing.T) {
	s := stubServer(t, Config{}, 4<<10, func(s *Server) { s.store.maxBodyBytes = 1 << 10 })
	rec := postSpec(t, s, testSpec(1), "?wait=1", http.StatusOK)
	want := stubBody(1, 4<<10)
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("?wait=1 body of %d bytes, want %d", rec.Body.Len(), len(want))
	}
	again := serve(s, "GET", "/v1/jobs/"+rec.Header().Get("X-Pnut-Job")+"/result", nil)
	if again.Code != http.StatusOK || !bytes.Equal(again.Body.Bytes(), want) {
		t.Fatalf("result fetch: status %d, %d bytes", again.Code, again.Body.Len())
	}
}

// TestSubmitMaxStates: a reach or analytic spec asking for more states
// than the server cap is refused before it is queued; one at the cap
// is admitted, and a spec that leaves maxStates unset is held to the
// engine default.
func TestSubmitMaxStates(t *testing.T) {
	net, err := os.ReadFile("../../testdata/mutex.pn")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{MaxStates: 5000, QueueDepth: 8})
	started, release := blockingRun(s)
	defer close(release)
	s.Start()
	t.Cleanup(func() { s.Drain(context.Background()) })
	reachSpec := func(engine string, states int) sweepcli.Spec {
		sp := sweepcli.Spec{Net: string(net), Engine: engine, MaxStates: states}
		if engine == "reach" {
			sp.Bound = []string{"lock"}
		} else {
			sp.Throughput = []string{"enter_a"}
		}
		return sp
	}
	for _, engine := range []string{"reach", "analytic"} {
		rec := postSpec(t, s, reachSpec(engine, 5001), "", http.StatusBadRequest)
		if !strings.Contains(rec.Body.String(), "server cap of 5000") {
			t.Fatalf("%s over the cap: %s", engine, rec.Body.String())
		}
		postSpec(t, s, reachSpec(engine, 0), "", http.StatusBadRequest)
		postSpec(t, s, reachSpec(engine, 5000), "", http.StatusAccepted)
	}
	<-started
	// The cap bounds only the exhaustive engines.
	sim := testSpec(1)
	sim.MaxStates = 1 << 30
	postSpec(t, s, sim, "", http.StatusAccepted)
}

// TestSubmitRejectsSpillDir: a spec may not pick a directory on the
// server's disk; spilling itself stays available.
func TestSubmitRejectsSpillDir(t *testing.T) {
	s := New(Config{})
	blockingRun(s)
	net, err := os.ReadFile("../../testdata/mutex.pn")
	if err != nil {
		t.Fatal(err)
	}
	spec := sweepcli.Spec{Net: string(net), Engine: "reach", SpillBudget: 1024, SpillDir: t.TempDir()}
	rec := postSpec(t, s, spec, "", http.StatusBadRequest)
	if !strings.Contains(rec.Body.String(), "spillDir") {
		t.Fatalf("rejection names no spillDir: %s", rec.Body.String())
	}
}
