// pipeline is the headline reproduction binary: it runs the paper's
// Section 2 experiment end to end — the 3-stage pipelined
// microprocessor simulated for 10 000 cycles — and prints the Figure 5
// statistics report, the Figure 7 Tracertool timing analysis and the
// Section 4.4 verification queries.
//
//	pipeline                          # Figure 5 report, default parameters
//	pipeline -tracer -queries         # add Figure 7 and the queries
//	pipeline -model interpreted       # the Section 3 table-driven variant
//	pipeline -model cached            # the probabilistic-cache extension
//	pipeline -model sequential        # the non-pipelined baseline
//	pipeline -memory 8 -buffer 4      # parameter studies
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/analytic"
	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/query"
	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/tracer"
)

func main() {
	model := flag.String("model", "base", "base | interpreted | cached | sequential")
	cycles := flag.Int64("cycles", 10_000, "simulation length in processor cycles")
	seed := flag.Int64("seed", 1988, "random seed")
	memory := flag.Int64("memory", 5, "memory access time in cycles")
	buffer := flag.Int("buffer", 6, "instruction buffer size in words")
	ihit := flag.Float64("ihit", 0.9, "instruction-cache hit ratio (cached model)")
	dhit := flag.Float64("dhit", 0.85, "data-cache hit ratio (cached model)")
	doTracer := flag.Bool("tracer", false, "print the Figure 7 timing analysis")
	doQueries := flag.Bool("queries", false, "run the Section 4.4 verification queries")
	doAnalytic := flag.Bool("analytic", false, "also solve the model analytically (exact steady state)")
	doBottlenecks := flag.Bool("bottlenecks", false, "print the token-residence bottleneck analysis")
	window := flag.Int64("window", 400, "tracer window length in cycles")
	flag.Parse()

	p := pipeline.DefaultParams()
	p.MemoryCycles = *memory
	p.BufferWords = *buffer

	var (
		net *petri.Net
		err error
	)
	switch *model {
	case "base":
		net, err = pipeline.Processor(p)
	case "interpreted":
		net, err = pipeline.InterpretedProcessor(p, pipeline.DefaultInstructionSet())
	case "cached":
		c := pipeline.DefaultCacheParams()
		c.IHitRatio = *ihit
		c.DHitRatio = *dhit
		net, err = pipeline.CacheProcessor(p, c)
	case "sequential":
		net, err = pipeline.SequentialProcessor(p)
	default:
		err = fmt.Errorf("unknown model %q", *model)
	}
	if err != nil {
		fatal(err)
	}

	h := trace.HeaderOf(net)
	s := stats.New(h)
	obs := trace.Tee{s}
	var qb *query.Builder
	if *doTracer || *doQueries {
		qb = query.NewBuilder(h)
		obs = append(obs, qb)
	}
	res, err := sim.Run(context.Background(), net, obs, sim.Options{Horizon: *cycles, Seed: *seed})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("model %q (%d places, %d transitions), %d cycles, seed %d\n\n",
		net.Name, net.NumPlaces(), net.NumTrans(), res.Clock, *seed)
	if err := s.Report(os.Stdout); err != nil {
		fatal(err)
	}

	issue, _ := s.Throughput("Issue")
	bus, _ := s.Utilization("Bus_busy")
	fmt.Printf("\nderived: instruction rate %.4f instr/cycle, bus utilization %.4f\n", issue, bus)
	if a, err := pipeline.Analyze(s); err == nil {
		fmt.Println()
		if err := a.Report(os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *doBottlenecks {
		fmt.Println()
		if err := s.BottleneckReport(net, os.Stdout); err != nil {
			fatal(err)
		}
	}

	if *doAnalytic {
		r, err := analytic.Evaluate(context.Background(), net, reach.Options{MaxStates: 500_000})
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipeline: analytic solve skipped: %v\n", err)
		} else {
			aBus, _ := r.Utilization("Bus_busy")
			aIssue, _ := r.Throughput("Issue")
			fmt.Printf("\nanalytic (exact, %d timed states): instruction rate %.4f, bus utilization %.4f\n",
				r.States, aIssue, aBus)
		}
	}

	if *doTracer {
		tr, err := tracer.Figure7(qb.Seq())
		if err != nil {
			fmt.Fprintf(os.Stderr, "pipeline: tracer skipped: %v\n", err)
		} else {
			if _, err := tr.MarkWhen("O", "Bus_busy > 0", 0); err == nil {
				if _, err := tr.MarkWhen("X", "storing > 0", 0); err != nil {
					fmt.Fprintf(os.Stderr, "pipeline: no store in window: %v\n", err)
				}
			}
			fmt.Printf("\nFigure 7 — Tracertool timing analysis (first %d cycles):\n", *window)
			fmt.Print(tr.Render(tracer.RenderOptions{From: 0, To: *window, Width: 96}))
		}
	}

	if *doQueries {
		seq := qb.Seq()
		guard := *cycles - 2**memory
		checks := []string{
			"forall s in S [ Bus_busy(s) + Bus_free(s) <= 1 ]",
			"forall s in S [ inev(s, Bus_busy(C) + Bus_free(C) == 1) ]",
			"exists s in (S - {#0}) [ Empty_I_buffers(s) == 6 ]",
			"exists s in S [ exec_type_5(s) > 0 ]",
			fmt.Sprintf("forall s in {s2 in S | Bus_busy(s2) && time(s2) < %d} [ inev(s, Bus_free(C), true) ]", guard),
		}
		if *model == "interpreted" {
			checks[3] = "exists s in S [ execute(s) > 0 ]"
		}
		if *model == "sequential" {
			checks[2] = "exists s in (S - {#0}) [ CPU_ready(s) == 1 ]"
		}
		fmt.Printf("\nSection 4.4 — verification queries:\n")
		for _, c := range checks {
			res, err := query.Check(seq, c)
			if err != nil {
				fmt.Printf("ERROR  %s: %v\n", c, err)
				continue
			}
			verdict := "HOLDS"
			if !res.Holds {
				verdict = "FAILS"
			}
			fmt.Printf("%s  %s", verdict, c)
			if res.Witness >= 0 {
				fmt.Printf("   (witness #%d at t=%d)", res.Witness, seq.Time(res.Witness))
			}
			fmt.Println()
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pipeline:", err)
	os.Exit(1)
}
