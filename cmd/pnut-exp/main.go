// pnut-exp is the replicated-experiment driver: the production face of
// the paper's "run many simulation experiments" workflow. It reads a
// textual Petri net (.pn), runs N independent replications as a
// zero-axis experiment.Sweep (one simulation engine and one statistics
// accumulator per worker), and reports each requested metric with its
// 95% confidence interval plus, optionally, the pooled Figure-5 style
// statistics report.
//
// Replication i always runs with seed -seed+i, so results are
// bit-for-bit reproducible for any -parallel value — the worker count
// only changes wall-clock time.
//
//	pnut-exp -net pipeline.pn -horizon 10000 -reps 32 \
//	         -throughput Issue -utilization Bus_busy
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/experiment"
	"repro/internal/petri"
	"repro/internal/ptl"
	"repro/internal/sweepcli"
	"repro/internal/trace"
)

func main() {
	netPath := flag.String("net", "", "path to the .pn net description (required)")
	var run sweepcli.RunFlags
	run.Register(flag.CommandLine, "base seed; replication i uses seed+i")
	reps := flag.Int("reps", 10, "number of independent replications")
	parallel := flag.Int("parallel", 0, "worker goroutines (0 = GOMAXPROCS; never affects results)")
	report := flag.Bool("report", false, "also print the pooled statistics report")
	traceDir := flag.String("trace-dir", "", "write every replication's full trace into this directory (rep-NNNN.trace)")
	traceFormat := sweepcli.TraceFormat(flag.CommandLine, trace.FormatCol)
	var sel sweepcli.MetricFlags
	sel.Register(flag.CommandLine)
	flag.Parse()

	if *netPath == "" {
		fmt.Fprintln(os.Stderr, "pnut-exp: -net is required")
		flag.Usage()
		os.Exit(2)
	}
	src, err := os.ReadFile(*netPath)
	if err != nil {
		fatal(err)
	}
	net, err := ptl.Parse(string(src))
	if err != nil {
		fatal(err)
	}

	metrics := sel.Metrics()
	so := run.SimOptions()
	so.Seed = 0 // the driver seeds each replication from BaseSeed
	opt := experiment.SweepOptions{
		Reps:     *reps,
		Workers:  *parallel,
		BaseSeed: run.Seed,
		Sim:      so,
		Metrics:  metrics,
		Build:    func(experiment.Point) (*petri.Net, error) { return net, nil },
	}

	// With -trace-dir every replication also streams its full trace to
	// a file; the columnar default keeps production-size experiments on
	// disk cheap, -trace-format text keeps them greppable.
	var traceCount atomic.Int64
	if *traceDir != "" {
		if _, err := trace.NewFormatWriter(io.Discard, trace.Header{}, *traceFormat, false); err != nil {
			fatal(err) // reject a bad -trace-format before running anything
		}
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(err)
		}
		h := trace.HeaderOf(net)
		opt.Backend = experiment.SimBackend{Observe: func(rep int) trace.Observer {
			// Each replication's file is closed on its Final record, so
			// the open-fd count tracks the worker pool, not -reps.
			f, err := os.Create(filepath.Join(*traceDir, fmt.Sprintf("rep-%04d.trace", rep)))
			if err != nil {
				return trace.ObserverFunc(func(*trace.Record) error { return err })
			}
			w, _ := trace.NewFormatWriter(f, h, *traceFormat, false)
			return trace.ObserverFunc(func(rec *trace.Record) error {
				if err := w.Record(rec); err != nil {
					f.Close()
					return err
				}
				if rec.Kind != trace.Final {
					return nil
				}
				if err := w.Flush(); err != nil {
					f.Close()
					return err
				}
				if err := f.Close(); err != nil {
					return fmt.Errorf("closing %s: %w", f.Name(), err)
				}
				traceCount.Add(1)
				return nil
			})
		}}
	}

	r, err := experiment.Sweep(context.Background(), opt)
	if err != nil {
		fatal(err)
	}
	pt := &r.Points[0]
	if *traceDir != "" {
		fmt.Fprintf(os.Stderr, "pnut-exp: wrote %d %s traces to %s\n", traceCount.Load(), *traceFormat, *traceDir)
	}

	out := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(out, "experiment %s: %d replications, base seed %d, %d workers\n",
		net.Name, r.Reps, run.Seed, r.Workers)
	fmt.Fprintf(out, "simulated %d ticks total, %d events\n", pt.Pooled.Duration(), r.Events)
	for i, m := range metrics {
		fmt.Fprintf(out, "%-32s %s\n", m.Name, pt.Summaries[i])
	}
	if *report {
		fmt.Fprintln(out)
		if err := pt.Pooled.Report(out); err != nil {
			fatal(err)
		}
	}
	if err := out.Flush(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pnut-exp: %s: reps=%d workers=%d elapsed=%s (%.0f events/s)\n",
		net.Name, r.Reps, r.Workers, r.Elapsed.Round(time.Microsecond),
		float64(r.Events)/r.Elapsed.Seconds())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pnut-exp:", err)
	os.Exit(1)
}
