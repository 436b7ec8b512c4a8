// Example sweep: reproduce the paper's two parameter studies — the
// Section 3 cache-hit-ratio sweep and the introduction's memory-speed
// claim — as one two-axis grid through the sharded sweep driver, then
// demonstrate that the worker count does not change a single byte of
// the results.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"

	"repro/internal/experiment"
	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/sim"
)

func main() {
	opt := experiment.SweepOptions{
		Axes: []experiment.Axis{
			{Name: "DHitRatio", Values: []float64{0, 0.5, 0.9, 1}},
			{Name: "MemoryCycles", Values: []float64{1, 5, 12}},
		},
		Reps:     8,
		BaseSeed: 1988,
		Sim:      sim.Options{Horizon: 10_000},
		Metrics: []experiment.Metric{
			experiment.Throughput("Issue"),
			experiment.Utilization("Bus_busy"),
		},
		Build: func(pt experiment.Point) (*petri.Net, error) {
			return pipeline.SweepProcessor(true, pt.Names, pt.Values)
		},
	}

	r, err := experiment.Sweep(context.Background(), opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d points x %d replications on %d workers (%d cores) in %s\n",
		len(r.Points), r.Reps, r.Workers, runtime.GOMAXPROCS(0), r.Elapsed.Round(0))
	if err := r.WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}

	// Re-run serially: the full CSV encoding must be byte-identical.
	parallelCSV := csvOf(r)
	opt.Workers = 1
	serial, err := experiment.Sweep(context.Background(), opt)
	if err != nil {
		log.Fatal(err)
	}
	if csvOf(serial) != parallelCSV {
		log.Fatal("BUG: worker count changed the results")
	}
	fmt.Println("serial and parallel sweep results are byte-identical")
}

func csvOf(r *experiment.SweepResult) string {
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		log.Fatal(err)
	}
	return b.String()
}
