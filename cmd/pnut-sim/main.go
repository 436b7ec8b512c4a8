// pnut-sim is the P-NUT simulation engine as a command: it reads a
// textual Petri net (.pn), simulates it, and writes the trace to stdout,
// where it can be stored or piped straight into pnut-stat, pnut-filter,
// pnut-tracer or pnut-anim — the decoupling Section 4.1 of the paper
// describes.
//
//	pnut-sim -net pipeline.pn -horizon 10000 -seed 1 | pnut-stat
//
// Replicated experiments (N seeds, pooled statistics, confidence
// intervals) are cmd/pnut-exp's job.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/ptl"
	"repro/internal/sim"
	"repro/internal/sweepcli"
	"repro/internal/trace"
)

func main() {
	netPath := flag.String("net", "", "path to the .pn net description (required)")
	var run sweepcli.RunFlags
	run.Register(flag.CommandLine, "random seed (equal seeds give equal traces)")
	flush := flag.Bool("flush", false, "flush after every record (for live piping)")
	format := sweepcli.TraceFormat(flag.CommandLine, trace.FormatText)
	flag.Parse()

	if *netPath == "" {
		fmt.Fprintln(os.Stderr, "pnut-sim: -net is required")
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
	opt := run.SimOptions()

	w, err := trace.NewFormatWriter(os.Stdout, trace.HeaderOf(net), *format, *flush)
	if err != nil {
		fatal(err)
	}
	res, err := sim.Run(context.Background(), net, w, opt)
	if err != nil {
		fatal(err)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "pnut-sim: %s: clock=%d starts=%d ends=%d quiescent=%v\n",
		net.Name, res.Clock, res.Starts, res.Ends, res.Quiescent)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pnut-sim:", err)
	os.Exit(1)
}
