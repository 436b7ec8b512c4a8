// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload over the paper's processor models in this process,
// checks every output, and prints its metrics as one JSON object on
// the last line of standard output:
//
//	perfbench --workload sweep_cache --seed 7 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones: set-up time, peak
// RSS and CPU time per unit. Both times are the process's CPU time, not
// wall time: on a shared virtual machine the hypervisor takes a share of
// the CPUs that varies from minute to minute, wall times vary with it,
// and CPU time leaves it out. With --trace 1 the run
// times half its units untraced and half with a span around every call
// the benchmark makes into a module, and reports per-layer metrics
// derived from those spans, including what tracing cost. Spans are
// written to .bench_build/spans when the run ends.
//
// The workloads, the reasons for them and the metrics' bounds are
// recorded in BENCHMARK.json at the repository root; run.sh builds
// this command from the checkout and runs it.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// config is one benchmark run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	root     string // repository root; fixtures are read relative to it
	spanDir  string // where a traced run writes its spans ("" = nowhere)
	maxUnits int    // cap on timed units per phase (0 = until the deadline)
	setups   int    // set-up repetitions; the median is reported
	log      io.Writer
}

// instance is one set-up workload, ready to time.
type instance interface {
	// run times one phase of units and checks each unit's output.
	run(ctx context.Context, p *phase) error
	// close releases what set-up acquired.
	close() error
}

// workload names a set-up function. Set-up builds every input from the
// seed, and ends with one cold unit.
type workload struct {
	name  string
	setup func(ctx context.Context, c *config) (instance, error)
}

var workloads = []workload{
	{"sweep_cache", setupSweep},
	{"exact_analysis", setupExact},
	{"trace_pipe", setupTracePipe},
	{"service_mix", setupService},
}

// result is the JSON object the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	c := config{root: ".", spanDir: filepath.Join(".bench_build", "spans"), setups: 5, log: os.Stdout}
	var trace int
	flag.StringVar(&c.workload, "workload", "", "workload to run: sweep_cache, exact_analysis, trace_pipe or service_mix")
	flag.Int64Var(&c.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&c.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	c.traced = trace == 1
	res, err := run(context.Background(), &c)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run sets the workload up, times it, and assembles the result.
func run(ctx context.Context, c *config) (res *result, err error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == c.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", c.workload)
	}
	if c.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if _, err := os.Stat(filepath.Join(c.root, "go.mod")); err != nil {
		return nil, fmt.Errorf("not at the repository root: %w", err)
	}

	inst, setupS, err := setUp(ctx, c, w)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := inst.close(); cerr != nil && err == nil {
			res, err = nil, cerr
		}
	}()

	if !c.traced {
		p := &phase{seconds: c.seconds, maxUnits: c.maxUnits}
		if err := inst.run(ctx, p); err != nil {
			return nil, err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		ms := map[string]metric{
			"setup_s":         {setupS, "s"},
			"rss_peak_mb":     {rss, "MB"},
			"cpu_ms_per_unit": {cpuMSPerUnit(p), "ms"},
		}
		report(c, p, ms)
		return finish(p.attempted, p.failed, ms), nil
	}

	// The traced run times an untraced half first, so the tracing
	// overhead is measured on the same inputs' distribution.
	plain := &phase{seconds: c.seconds / 2, maxUnits: c.maxUnits}
	if err := inst.run(ctx, plain); err != nil {
		return nil, err
	}
	traced := &phase{seconds: c.seconds / 2, maxUnits: c.maxUnits, rec: newRecorder()}
	if err := inst.run(ctx, traced); err != nil {
		return nil, err
	}
	ms := perLayer(traced, plain)
	report(c, traced, ms)
	if c.spanDir != "" {
		name := fmt.Sprintf("%s-seed%d.jsonl", c.workload, c.seed)
		if err := traced.rec.write(c.spanDir, name); err != nil {
			return nil, err
		}
	}
	return finish(plain.attempted+traced.attempted, plain.failed+traced.failed, ms), nil
}

// setUp runs the workload's set-up c.setups times and keeps the last
// instance; set-up time is the median of the CPU seconds each took.
func setUp(ctx context.Context, c *config, w *workload) (instance, float64, error) {
	n := max(c.setups, 1)
	times := make([]float64, 0, n)
	var inst instance
	for k := 0; k < n; k++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, 0, err
			}
		}
		cpu0, err := processCPU()
		if err != nil {
			return nil, 0, err
		}
		inst, err = w.setup(ctx, c)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		cpu1, err := processCPU()
		if err != nil {
			inst.close()
			return nil, 0, err
		}
		times = append(times, cpu1-cpu0)
	}
	return inst, median(times), nil
}

// cpuMSPerUnit is the process's CPU time during a phase per unit.
func cpuMSPerUnit(p *phase) float64 { return ratio(p.cpuS*1e3, float64(p.attempted)) }

func finish(attempted, failed int, ms map[string]metric) *result {
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}
}

// report prints a readable summary ahead of the JSON line.
func report(c *config, p *phase, ms map[string]metric) {
	fmt.Fprintf(c.log, "# %s seed=%d trace=%v units=%d failed=%d elapsed=%.2fs cpu=%.2fs host steal=%.3f\n",
		c.workload, c.seed, c.traced, p.attempted, p.failed, p.elapsed.Seconds(), p.cpuS, p.stealFrac)
	fmt.Fprintf(c.log, "# unit_ms deciles:")
	for q := 0; q <= 10; q++ {
		fmt.Fprintf(c.log, " %.4g", quantile(p.unitMS, float64(q)/10))
	}
	fmt.Fprintln(c.log)
	for _, f := range p.failures {
		fmt.Fprintf(c.log, "# failure: %s\n", f)
	}
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(c.log, "#   %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
