// pnut-server is the simulation service daemon: it exposes the sweep
// engine over HTTP so experiments can be submitted, monitored and
// fetched remotely instead of through pnut-sweep runs on a shared box.
//
// A job is the same declarative spec the CLIs speak (model or inline
// .pn source, axes, seeds, stopping rule, metrics), POSTed as JSON:
//
//	curl -s -X POST localhost:8080/v1/jobs?wait=1 -d '{
//	  "model": "cache",
//	  "axes": ["DHitRatio=0.5,0.9", "MemoryCycles=1,5"],
//	  "reps": 3, "seed": 11, "horizon": 1000,
//	  "format": "csv",
//	  "throughput": ["Issue"], "utilization": ["Bus_busy"]
//	}'
//
// Determinism makes the service more than a job runner: results are
// content-addressed (normalized model + expanded grid + seed layout +
// stopping rule + metrics + format), so a repeated submission — even
// spelled differently — is served from the result cache without
// simulating anything, marked X-Pnut-Cache: hit.
//
// Operational behavior: a bounded job queue with per-client rate
// limiting (429 + Retry-After), job cancellation, SSE progress
// streams, /healthz + /metrics, and graceful drain — on SIGTERM (or
// SIGINT) the server stops admitting, lets running jobs finish (up to
// -drain-timeout), closes the listener and exits 0.
//
// With -worker-cmd, jobs fan out over worker processes through the
// fault-tolerant distributed coordinator instead of running in-process:
//
//	pnut-server -worker-cmd ./pnut-sweep -procs 8
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/server"
)

// Connection timeouts. A client that never finishes its request
// headers, or an idle keep-alive connection, is dropped instead of
// holding a goroutine and a socket forever. There is deliberately no
// WriteTimeout: a ?wait=1 submission holds its response open for the
// whole job and the SSE progress stream lives as long as the job, so
// any fixed write deadline would cut off legitimate long jobs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	queue := flag.Int("queue", 16, "job queue depth (admitted but not yet running)")
	jobs := flag.Int("jobs", 1, "jobs simulated concurrently")
	parallel := flag.Int("parallel", 0, "default worker goroutines per job (0 = all CPUs); a job's own parallel field wins")
	rate := flag.Float64("rate", 0, "per-client admissions per second (0 = unlimited)")
	burst := flag.Float64("burst", 4, "per-client admission burst")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result cache budget in bytes (0 disables caching)")
	workerCmd := flag.String("worker-cmd", "", "run jobs via worker processes: command prefix for the distributed coordinator (e.g. ./pnut-sweep)")
	procs := flag.Int("procs", 4, "worker processes per job with -worker-cmd")
	maxBody := flag.Int64("max-body", 1<<20, "largest accepted job spec in bytes")
	maxCells := flag.Int("max-cells", 1_000_000, "largest accepted grid in (point, replication) cells")
	maxStates := flag.Int("max-states", 1_000_000, "largest accepted state-space cap per grid point for reach and analytic jobs")
	drainTimeout := flag.Duration("drain-timeout", 60*time.Second, "how long a drain waits for running jobs before canceling them")
	verbose := flag.Bool("v", false, "log job lifecycle and coordinator progress to stderr")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}

	var logw io.Writer
	if *verbose {
		logw = os.Stderr
	}
	srv := server.New(server.Config{
		QueueDepth: *queue,
		RunJobs:    *jobs,
		Workers:    *parallel,
		RatePerSec: *rate,
		Burst:      *burst,
		CacheBytes: *cacheBytes,
		WorkerCmd:  *workerCmd,
		Procs:      *procs,
		MaxBody:    *maxBody,
		MaxCells:   *maxCells,
		MaxStates:  *maxStates,
		Log:        logw,
	})
	srv.Start()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "pnut-server: listening on %s\n", *addr)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		fatal(err)
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "pnut-server: %s, draining\n", sig)
	}

	// Graceful exit: stop admitting and finish running jobs first (the
	// listener stays up so waiting clients receive their results), then
	// close the listener.
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(drainCtx)
	shutCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		httpSrv.Close()
	}
	if drainErr != nil {
		fatal(fmt.Errorf("drain: %w", drainErr))
	}
	fmt.Fprintln(os.Stderr, "pnut-server: drained, bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pnut-server:", err)
	os.Exit(1)
}
