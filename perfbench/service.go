package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/experiment"
	"repro/internal/server"
	"repro/internal/sweepcli"
)

// service_mix: HTTP sweep jobs against an in-process pnut-server on a
// loopback listener, arriving as a Poisson process at a fixed rate at
// which the single job runner is about a quarter busy. Most jobs resubmit a
// few popular cache-model specs (cache hits, or joins while one is in
// flight); some are fresh-seed sweeps that miss and simulate; a few are
// small reach jobs on the inline mutex net. Each job is timed from its
// due time, so a stall also delays the jobs queued behind it.

const (
	// serviceRate keeps the runner about a quarter busy: 15% of the
	// arrivals miss, and each miss simulates for 35-45 ms. Near half
	// busy, misses often queue two deep and hold both connections, and
	// the stalled hits amplify the host's swings in speed into p90.
	serviceRate  = 40.0 // job arrivals per second
	serviceConns = 2    // HTTP connections
)

// serviceBlock is the job mix: each block of 20 consecutive arrivals
// holds, in a seeded order, 3 fresh sweeps (misses), 2 reach jobs and
// 15 popular resubmissions. Fixing the shares per block rather than
// drawing each job's kind keeps the runner's load, and so the CPU per
// job and the latency percentiles, from varying with the seed's luck;
// p90 falls a third of the way into the misses.
var serviceBlock = []jobKind{
	fresh, fresh, fresh, reachJob, reachJob,
	popular, popular, popular, popular, popular, popular, popular, popular, popular, popular,
	popular, popular, popular, popular, popular,
}

type jobKind int

const (
	popular jobKind = iota
	fresh
	reachJob
)

// serviceSpec is the cache-model job shape; popular and fresh jobs
// differ only in their base seed.
func serviceSpec(seed int64) sweepcli.Spec {
	return sweepcli.Spec{
		Model:       "cache",
		Axes:        []string{"DHitRatio=0.6,0.9", "MemoryCycles=3,8"},
		Reps:        4,
		Seed:        seed,
		Horizon:     5000,
		Throughput:  []string{"Issue"},
		Utilization: []string{"Bus_busy"},
	}
}

// popularWeights skews resubmissions towards the first popular spec.
var popularWeights = []float64{0.5, 0.3, 0.2}

type serviceBench struct {
	rng     *rand.Rand
	popular []sweepcli.Spec
	reach   []sweepcli.Spec
	fresh   int64     // the next fresh base seed
	block   []jobKind // the rest of the current block of arrivals
	next    int

	refMu sync.Mutex
	refs  map[string][]byte // spec JSON -> in-process CSV rendering

	srv    *server.Server
	hs     *http.Server // nil until serving, and again once closed
	served chan error
	client *http.Client
	base   string
}

// reply is one answered job, kept for the check made after the phase.
type reply struct {
	unit int
	spec []byte
	body []byte
}

func setupService(ctx context.Context, c *config) (instance, error) {
	mutex, err := os.ReadFile(filepath.Join(c.root, "testdata", "mutex.pn"))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(c.seed))
	b := &serviceBench{rng: rng, refs: make(map[string][]byte)}
	for range popularWeights {
		b.popular = append(b.popular, serviceSpec(1+rng.Int63n(1<<30)))
	}
	// Fresh seeds start above every popular seed, so they never collide.
	b.fresh = 1<<30 + 1 + rng.Int63n(1<<40)
	for _, sel := range [][2][]string{
		{{"crit_a"}, nil},
		{{"lock", "want_b"}, nil},
		{nil, {"AG({crit_a + crit_b <= 1})", "EF(deadlock)"}},
	} {
		b.reach = append(b.reach, sweepcli.Spec{Net: string(mutex), Engine: "reach", Bound: sel[0], Ctl: sel[1]})
	}

	// pnut-server's defaults with -parallel 1: each job simulates on one
	// worker goroutine and the request path keeps the other CPU. With
	// jobs on both CPUs, a request arriving during a job waits for a
	// scheduler time slice, which splits the latencies into two modes
	// and puts the median between them.
	b.srv = server.New(server.Config{QueueDepth: 16, RunJobs: 1, Workers: 1, CacheBytes: 64 << 20})
	b.srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		if derr := b.srv.Drain(ctx); derr != nil {
			return nil, errors.Join(err, derr)
		}
		return nil, err
	}
	b.base = "http://" + ln.Addr().String()
	b.hs = &http.Server{Handler: b.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     serviceConns,
		MaxIdleConnsPerHost: serviceConns,
		DisableCompression:  true,
	}}

	// Prime the cache with every repeated spec, checking each against
	// its in-process rendering, then time one cold (fresh) job.
	for _, spec := range append(append([]sweepcli.Spec(nil), b.popular...), b.reach...) {
		body, err := json.Marshal(spec)
		if err != nil {
			b.close()
			return nil, err
		}
		got, _, err := b.post(ctx, body)
		if err == nil {
			err = b.verify(body, got, nil)
		}
		if err != nil {
			b.close()
			return nil, fmt.Errorf("priming: %w", err)
		}
	}
	cold, err := json.Marshal(b.freshSpec())
	if err == nil {
		var got []byte
		if got, _, err = b.post(ctx, cold); err == nil {
			err = b.verify(cold, got, nil)
		}
	}
	if err != nil {
		b.close()
		return nil, fmt.Errorf("cold unit: %w", err)
	}
	b.next++
	return b, nil
}

func (b *serviceBench) freshSpec() sweepcli.Spec {
	s := serviceSpec(b.fresh)
	b.fresh++
	return s
}

// pick draws the next job's spec.
func (b *serviceBench) pick() sweepcli.Spec {
	if len(b.block) == 0 {
		b.block = append(b.block, serviceBlock...)
		b.rng.Shuffle(len(b.block), func(i, j int) { b.block[i], b.block[j] = b.block[j], b.block[i] })
	}
	kind := b.block[0]
	b.block = b.block[1:]
	switch kind {
	case fresh:
		return b.freshSpec()
	case reachJob:
		return b.reach[b.rng.Intn(len(b.reach))]
	}
	r := b.rng.Float64()
	for k, w := range popularWeights {
		if r < w {
			return b.popular[k]
		}
		r -= w
	}
	return b.popular[len(b.popular)-1]
}

// arrival is one scheduled job.
type arrival struct {
	unit int
	at   time.Duration // offset from the phase start
	spec []byte
}

// schedule draws the phase's Poisson arrivals.
func (b *serviceBench) schedule(p *phase) ([]arrival, error) {
	var out []arrival
	horizon := time.Duration(p.seconds * float64(time.Second))
	at := time.Duration(0)
	for p.maxUnits == 0 || len(out) < p.maxUnits {
		at += time.Duration(b.rng.ExpFloat64() / serviceRate * float64(time.Second))
		if at >= horizon && len(out) > 0 {
			break
		}
		body, err := json.Marshal(b.pick())
		if err != nil {
			return nil, err
		}
		out = append(out, arrival{unit: b.next, at: at, spec: body})
		b.next++
	}
	return out, nil
}

func (b *serviceBench) run(ctx context.Context, p *phase) error {
	arrivals, err := b.schedule(p)
	if err != nil {
		return err
	}
	replies := make([]reply, 0, len(arrivals))
	var mu sync.Mutex
	err = p.measure(func() error {
		start := time.Now()
		var wg sync.WaitGroup
		for _, a := range arrivals {
			due := start.Add(a.at)
			if d := time.Until(due); d > 0 {
				select {
				case <-time.After(d):
				case <-ctx.Done():
					wg.Wait()
					return ctx.Err()
				}
			}
			p.rec.sample("bench.generator_late_ms", float64(time.Since(due))/1e6)
			wg.Add(1)
			go func(a arrival, due time.Time) {
				defer wg.Done()
				body, err := b.job(ctx, p, a, due)
				if err == nil {
					mu.Lock()
					replies = append(replies, reply{unit: a.unit, spec: a.spec, body: body})
					mu.Unlock()
				}
			}(a, due)
		}
		wg.Wait()
		return nil
	})
	if err != nil {
		return err
	}
	// Every answered body must equal the in-process rendering of its
	// spec; fresh specs are rendered here, after the timing.
	for _, r := range replies {
		if err := b.verify(r.spec, r.body, p.rec); err != nil {
			p.fail(fmt.Errorf("service_mix unit %d: %w", r.unit, err))
		}
	}
	return nil
}

// job submits one arrival and records its latency from the due time.
func (b *serviceBench) job(ctx context.Context, p *phase, a arrival, due time.Time) ([]byte, error) {
	rec := p.rec
	root := rec.beginAt(due, a.unit, noSpan, unitLayer, unitName)
	// The load generator's lateness: timers fire up to about a
	// millisecond late, as long as a cache hit takes.
	sent := time.Now()
	rec.end(rec.beginAt(due, a.unit, root, unitLayer, "generator_late"))
	id := rec.begin(a.unit, root, "server", "server.POST /v1/jobs")
	body, resp, err := b.post(ctx, a.spec)
	rec.end(id)
	rec.end(root)
	done := time.Now()
	p.done(done.Sub(due), err)
	rec.count("server.jobs", 1)
	if resp == nil {
		return nil, err
	}
	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		rec.count("server.rejected", 1)
	}
	if err != nil {
		return nil, err
	}
	if rec != nil {
		if err := b.traceJob(ctx, rec, resp, done.Sub(sent)); err != nil {
			p.fail(fmt.Errorf("service_mix unit %d: job status: %w", a.unit, err))
		}
	}
	return body, nil
}

// traceJob reads the job's server-side timestamps and splits the round
// trip into queue wait, run time and request overhead.
func (b *serviceBench) traceJob(ctx context.Context, rec *recorder, resp *http.Response, roundTrip time.Duration) error {
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	switch resp.Header.Get("X-Pnut-Cache") {
	case "hit":
		rec.count("cache.hits", 1)
		rec.sample("server.hit_ms", ms(roundTrip))
		return nil
	case "join":
		rec.count("cache.joins", 1)
		return nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/v1/jobs/"+resp.Header.Get("X-Pnut-Job"), nil)
	if err != nil {
		return err
	}
	r, err := b.client.Do(req)
	if err != nil {
		return err
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", r.StatusCode)
	}
	var v server.JobView
	if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
		return err
	}
	var stamps [3]time.Time
	for k, s := range []string{v.Created, v.Started, v.Finished} {
		if stamps[k], err = time.Parse(time.RFC3339Nano, s); err != nil {
			return err
		}
	}
	created, started, finished := stamps[0], stamps[1], stamps[2]
	rec.sample("server.queue_wait_ms", ms(started.Sub(created)))
	rec.sample("server.run_ms", ms(finished.Sub(started)))
	rec.count("server.run_ns", float64(finished.Sub(started)))
	rec.sample("server.overhead_ms", ms(roundTrip-finished.Sub(created)))
	return nil
}

// post submits a spec and waits for the result body. A status other
// than 200 is an error.
func (b *serviceBench) post(ctx context.Context, spec []byte) ([]byte, *http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/v1/jobs?wait=1", bytes.NewReader(spec))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, resp, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, resp, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp, nil
}

// verify compares a served body with the in-process rendering of the
// same spec, computing and keeping the rendering on first use.
func (b *serviceBench) verify(specJSON, got []byte, rec *recorder) error {
	b.refMu.Lock()
	want, ok := b.refs[string(specJSON)]
	b.refMu.Unlock()
	if !ok {
		var spec sweepcli.Spec
		if err := json.Unmarshal(specJSON, &spec); err != nil {
			return err
		}
		t0 := time.Now()
		opt, _, err := spec.Resolve()
		if err != nil {
			return err
		}
		rec.sample("sweepcli.resolve_us", float64(time.Since(t0))/1e3)
		res, err := experiment.Sweep(context.Background(), opt)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			return err
		}
		want = buf.Bytes()
		b.refMu.Lock()
		b.refs[string(specJSON)] = want
		b.refMu.Unlock()
	}
	if !bytes.Equal(got, want) {
		return errors.New("HTTP body differs from the in-process rendering of its spec")
	}
	return nil
}

// close stops the listener, drains the server's runner and waits for
// the serving goroutine.
func (b *serviceBench) close() error {
	if b.hs == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := b.hs.Shutdown(ctx)
	if derr := b.srv.Drain(ctx); err == nil {
		err = derr
	}
	if serr := <-b.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	b.client.CloseIdleConnections()
	b.hs = nil
	return err
}
