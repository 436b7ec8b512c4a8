// pnut-dot exports a net — or its reachability graph — as Graphviz dot
// text, the modern stand-in for the paper's graphical net editor views
// (Figures 1-4) and reachability displays.
//
//	pnut-dot -net testdata/pipeline.pn > pipeline.dot
//	pnut-dot -net testdata/mutex.pn -reach > mutex_reach.dot
//	pnut-dot -net testdata/mutex.pn -reach -timed > mutex_treach.dot
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/internal/petri"
	"repro/internal/ptl"
	"repro/internal/reach"
)

func main() {
	netPath := flag.String("net", "", "path to the .pn net description (required)")
	doReach := flag.Bool("reach", false, "export the reachability graph instead of the net")
	timed := flag.Bool("timed", false, "with -reach: export the timed graph")
	maxStates := flag.Int("max-states", 10_000, "state cap for -reach")
	flag.Parse()

	if *netPath == "" {
		fmt.Fprintln(os.Stderr, "pnut-dot: -net is required")
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
	if !*doReach {
		fmt.Print(petri.DOT(net))
		return
	}
	build := reach.Build
	if *timed {
		build = reach.BuildTimed
	}
	g, err := build(context.Background(), net, reach.Options{MaxStates: *maxStates})
	if err != nil {
		fatal(err)
	}
	fmt.Print(g.DOT())
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pnut-dot:", err)
	os.Exit(1)
}
