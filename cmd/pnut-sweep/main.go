// pnut-sweep is the parameter-sweep driver: the production face of the
// paper's central workflow — sweep a design parameter (cache hit ratio,
// memory speed, ...) across a grid of simulation experiments and
// compare the resulting performance curves.
//
// Axes are given as -axis Name=v1,v2,... or -axis Name=lo:hi:step;
// their cartesian product is the grid. Each grid point runs -reps
// independent replications, and all (point, replication) cells fan
// through one shared worker pool. Cell (p, r) always runs with seed
// -seed + p*reps + r, so the output is bit-for-bit reproducible for any
// -parallel value — the worker count only changes wall-clock time.
//
// Two model sources are supported:
//
//   - The built-in pipeline models (-model pipeline or -model cache),
//     where axis names are pipeline parameters such as MemoryCycles,
//     StoreProb, DHitRatio (see -h for the full list). This reproduces
//     the paper's cache and memory-speed studies directly:
//
//     pnut-sweep -model cache -axis DHitRatio=0,0.5,0.9,1 \
//     -reps 8 -throughput Issue -utilization Bus_busy
//
//   - A textual net (-net model.pn), where axis names are the net's
//     var declarations, overridden per point.
//
// Beyond simulation, -engine selects the grid engine: -engine reach
// runs exhaustive state-space analysis per grid point (graph size,
// deadlocks, dead transitions, truncation, plus -bound and -ctl
// selections), -engine analytic solves each point's timed reachability
// graph exactly as a semi-Markov process, and -engine sim+analytic
// runs both and cross-validates the simulated means against the exact
// values within -xtol, failing the run on disagreement. The
// deterministic engines collapse to one replication per point; axes,
// shard partitions, journals and the server cache work unchanged.
//
// Instead of a fixed -reps, -adaptive metric:relci switches each grid
// point to CI-targeted sequential stopping: -min-reps replications
// first, then batches of -batch more until the metric's 95% CI
// half-width is within relci of |mean| or -max-reps is reached. Cell
// (p, r) then runs with seed -seed + p*max-reps + r, the stopping
// decision is taken only from replication-order summaries between
// rounds, and the table/CSV gain an "n" column — output stays
// bit-for-bit reproducible for any -parallel value:
//
//	pnut-sweep -model cache -axis DHitRatio=0:1:0.1 \
//	  -adaptive 'throughput(Issue):0.02' -min-reps 4 -max-reps 64 \
//	  -throughput Issue
//
// Results print as an aligned table (one row per point, mean ±95% CI
// per metric) or as CSV with -format csv; run-shape and timing lines go
// to stderr, so stdout is stable interchange.
//
// pnut-sweep is also the worker of the distributed driver (see
// pnut-grid): with -emit cells it executes only its share of the grid,
// the cell span -cells lo:hi, and streams one self-describing JSONL
// cell record per finished cell on stdout. Any partition into spans
// reassembles byte-identically to a single in-process run. With -spec
// the job is one JSON pnut-server job body, from a file or stdin (-),
// instead of sweep flags: pnut-grid and pnut-server ship jobs so.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/sweepcli"
)

func main() {
	var cfg sweepcli.Config
	cfg.Register(flag.CommandLine)
	format := flag.String("format", "table", "output format: table or csv")
	progress := flag.Bool("progress", false, "log per-cell progress lines to stderr (deterministic cell order)")
	spec := flag.String("spec", "", "with -emit cells: the whole job as a JSON spec file, as pnut-server takes it (- = stdin)")
	cells := flag.String("cells", "", "with -emit cells: run only cells lo:hi (0-based, half-open)")
	emit := flag.String("emit", "", `set to "cells" to stream per-cell JSONL records instead of a merged table`)
	xtol := flag.Float64("xtol", 0.05, "with -engine sim+analytic: relative tolerance per metric; any grid\npoint whose simulated mean strays further from the exact value fails\nthe run")
	flag.Parse()

	if *emit != "" && *emit != "cells" {
		fatal(fmt.Errorf("unknown -emit %q (want cells)", *emit))
	}
	if *emit == "" && (*spec != "" || *cells != "") {
		fatal(fmt.Errorf("-spec and -cells are worker flags and require -emit cells"))
	}
	if cfg.Engine == "sim+analytic" {
		if *emit != "" {
			fatal(fmt.Errorf("-engine sim+analytic drives two full sweeps and cannot shard or emit cells"))
		}
		if err := crossValidate(&cfg, *format, *xtol); err != nil {
			fatal(err)
		}
		return
	}
	resolve := cfg.Options
	if *spec != "" {
		resolve = func() (experiment.SweepOptions, string, error) { return jobSpec(*spec) }
	}
	opt, name, err := resolve()
	if err != nil {
		fatal(err)
	}
	if *emit == "cells" {
		if err := emitCells(opt, name, *cells); err != nil {
			fatal(err)
		}
		return
	}

	if *progress {
		// The same OnCell hook the simulation server's SSE feed uses:
		// cells are reported serialized and in deterministic grid order,
		// and the hook cannot change a result byte.
		total, done := opt.NumCells(), 0
		opt.OnCell = func(pt experiment.Point, rep int) {
			done++
			fmt.Fprintf(os.Stderr, "pnut-sweep: cell %d/%d  %s  rep %d\n", done, total, pt.String(), rep)
		}
	}

	r, err := experiment.Sweep(context.Background(), opt)
	if err != nil {
		fatal(err)
	}

	if *format == "table" {
		if r.Adaptive != nil {
			fmt.Fprintf(os.Stderr, "pnut-sweep: sweep %s: %d points, adaptive %s:%g reps %d..%d (%d total), base seed %d, %d workers\n",
				name, len(r.Points), r.Adaptive.Metric, r.Adaptive.RelCI,
				r.Adaptive.MinReps, r.Adaptive.MaxReps, r.TotalReps, cfg.Seed, r.Workers)
		} else if cfg.Engine != "" && cfg.Engine != "sim" {
			fmt.Fprintf(os.Stderr, "pnut-sweep: sweep %s: %d points, engine %s (deterministic), %d workers\n",
				name, len(r.Points), cfg.Engine, r.Workers)
		} else {
			fmt.Fprintf(os.Stderr, "pnut-sweep: sweep %s: %d points x %d replications, base seed %d, %d workers\n",
				name, len(r.Points), r.Reps, cfg.Seed, r.Workers)
		}
	}
	if err := sweepcli.Render(os.Stdout, *format, r.WriteTable, r.WriteCSV); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pnut-sweep: %s: points=%d total_reps=%d workers=%d elapsed=%s (%.0f events/s)\n",
		name, len(r.Points), r.TotalReps, r.Workers, r.Elapsed.Round(time.Microsecond),
		float64(r.Events)/r.Elapsed.Seconds())
}

// crossValidate is the -engine sim+analytic mode: run the stochastic
// sweep and the exact sweep over the same grid, diff them point by
// point, and fail (exit 1) when any metric strays past the tolerance.
func crossValidate(cfg *sweepcli.Config, format string, tol float64) error {
	simOpt, anaOpt, name, err := cfg.CrossOptions()
	if err != nil {
		return err
	}
	simRes, err := experiment.Sweep(context.Background(), simOpt)
	if err != nil {
		return fmt.Errorf("sim half: %w", err)
	}
	anaRes, err := experiment.Sweep(context.Background(), anaOpt)
	if err != nil {
		return fmt.Errorf("analytic half: %w", err)
	}
	rep, err := sweepcli.CrossValidate(simRes, anaRes, tol)
	if err != nil {
		return err
	}
	if err := sweepcli.Render(os.Stdout, format, rep.WriteTable, rep.WriteCSV); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pnut-sweep: cross-validation %s: %d points, %d metrics, tol %g, %d total sim reps\n",
		name, len(rep.Rows), len(rep.Rows[0].Cols), tol, simRes.TotalReps)
	if rep.Disagreements > 0 {
		return fmt.Errorf("cross-validation: %d metric values disagree beyond tol %g (see the relerr columns)", rep.Disagreements, tol)
	}
	return nil
}

// jobSpec resolves the -spec job document as pnut-server resolves a
// job body. The document is the whole job.
func jobSpec(path string) (experiment.SweepOptions, string, error) {
	var set []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "spec" && f.Name != "cells" && f.Name != "emit" {
			set = append(set, "-"+f.Name)
		}
	})
	if len(set) > 0 {
		return experiment.SweepOptions{}, "", fmt.Errorf("-spec carries the whole job; %s cannot be set next to it", strings.Join(set, ", "))
	}
	in := os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return experiment.SweepOptions{}, "", err
		}
		defer f.Close()
		in = f
	}
	spec, err := sweepcli.DecodeSpec(in)
	if err != nil {
		return experiment.SweepOptions{}, "", fmt.Errorf("-spec %s: %w", path, err)
	}
	opt, info, err := spec.Resolve()
	return opt, info.Name, err
}

// emitCells is worker mode: run one span of the grid, stream cell
// records on stdout.
func emitCells(opt experiment.SweepOptions, name, cells string) error {
	if err := opt.Validate(); err != nil {
		return err
	}
	span, err := pickSpan(opt.NumCells(), cells)
	if err != nil {
		return err
	}
	cw, err := experiment.NewCellWriter(os.Stdout, experiment.MetaOf(opt, name))
	if err != nil {
		return err
	}
	start := time.Now()
	if span.Size() > 0 {
		if _, err := experiment.RunCellsContext(context.Background(), opt, span.Lo, span.Hi, cw.Write); err != nil {
			return err
		}
	}
	if err := cw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "pnut-sweep: %s: cells %s of %d, workers=%d elapsed=%s\n",
		name, span, opt.NumCells(), opt.PoolSize(span.Size()), time.Since(start).Round(time.Microsecond))
	return nil
}

// pickSpan resolves the worker's share of the grid: the -cells span,
// or the whole grid.
func pickSpan(numCells int, cells string) (experiment.CellSpan, error) {
	if cells == "" {
		return experiment.CellSpan{Lo: 0, Hi: numCells}, nil
	}
	los, his, ok := strings.Cut(cells, ":")
	lo, err1 := strconv.Atoi(los)
	hi, err2 := strconv.Atoi(his)
	if !ok || err1 != nil || err2 != nil {
		return experiment.CellSpan{}, fmt.Errorf("-cells %q is not lo:hi", cells)
	}
	if lo < 0 || hi > numCells || lo >= hi {
		return experiment.CellSpan{}, fmt.Errorf("-cells %d:%d outside grid of %d cells", lo, hi, numCells)
	}
	return experiment.CellSpan{Lo: lo, Hi: hi}, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pnut-sweep:", err)
	os.Exit(1)
}
