// pnut-reach is the reachability graph analyzer: it builds the untimed
// (default) or timed (-timed) reachability graph of a net and checks
// branching-time temporal-logic formulas against it, in the manner of
// [MR87]. Coverability (-coverability) gives a definite unboundedness
// answer for nets without inhibitor arcs.
//
// The state-space flags are the shared sweepcli group: -max-states,
// -bound-cap, -explore-shards, and -spill-budget with -spill-dir, which
// let an exploration larger than RAM complete by spilling blocks of
// rows to a temp file, for either graph. -check and -invariant apply
// to either graph. Ctrl-C cancels a running build cleanly at the next
// window barrier.
//
//	pnut-reach -net mutex.pn -check 'AG({crit_a + crit_b <= 1})' \
//	           -invariant 'lock=1,crit_a=1,crit_b=1'
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/ptl"
	"repro/internal/reach"
	"repro/internal/sweepcli"
)

func main() {
	netPath := flag.String("net", "", "path to the .pn net description (required)")
	timed := flag.Bool("timed", false, "build the timed reachability graph (constant delays only)")
	coverability := flag.Bool("coverability", false, "run Karp-Miller coverability (no inhibitor arcs)")
	var ef sweepcli.EngineFlags
	ef.RegisterState(flag.CommandLine)
	var checks, invariants sweepcli.Repeated
	flag.Var(&checks, "check", "temporal-logic formula, e.g. 'AG({p + q == 1})' (repeatable)")
	flag.Var(&invariants, "invariant", "P-invariant 'place=weight,place=weight' (repeatable)")
	flag.Parse()

	if *netPath == "" {
		fmt.Fprintln(os.Stderr, "pnut-reach: -net is required")
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
	// Every formula and invariant is parsed before the build, so a bad
	// one costs no exploration and leaves no spill file behind.
	weights := make([]map[string]int, len(invariants))
	for i, inv := range invariants {
		if weights[i], err = parseInvariant(inv); err != nil {
			fatal(err)
		}
	}
	formulas := make([]reach.Formula, len(checks))
	for i, c := range checks {
		if formulas[i], err = reach.ParseFormula(c); err != nil {
			fatal(err)
		}
	}
	opt := ef.ReachOptions()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *coverability {
		unbounded, err := reach.Coverability(ctx, net, opt)
		if err != nil {
			fatal(err)
		}
		if len(unbounded) == 0 {
			fmt.Println("coverability: all places bounded")
		} else {
			fmt.Printf("coverability: unbounded places: %s\n", strings.Join(unbounded, ", "))
		}
	}

	build := reach.Build
	if *timed {
		build = reach.BuildTimed
	}
	g, err := build(ctx, net, opt)
	if err != nil {
		fatal(err)
	}
	if opt.SpillBudget > 0 {
		fmt.Fprintf(os.Stderr, "pnut-reach: store spill: %d bytes encoded, %d spilled to disk\n",
			g.StoreBytes(), g.SpilledBytes())
	}
	if *timed {
		fmt.Printf("timed reachability graph of %q: %d states, %d deadlocks\n",
			net.Name, len(g.Nodes), len(g.Deadlocks()))
		if g.Truncated {
			fmt.Println("  (truncated: results are lower bounds)")
		}
	} else {
		fmt.Print(g.Summary())
	}
	for i, inv := range invariants {
		v, err := g.CheckInvariant(weights[i])
		if err != nil {
			fmt.Printf("INVARIANT FAILS  %s: %v\n", inv, err)
			continue
		}
		fmt.Printf("INVARIANT HOLDS  %s = %d\n", inv, v)
	}

	failed := false
	for i, c := range checks {
		if reach.Holds(g, formulas[i]) {
			fmt.Printf("HOLDS  %s\n", c)
		} else {
			fmt.Printf("FAILS  %s\n", c)
			failed = true
		}
	}
	// A failed spill read zeroes the markings it should have returned:
	// every line above may rest on a partial state space.
	err = g.Err()
	g.Close()
	if err != nil {
		fatal(err)
	}
	if failed {
		os.Exit(1)
	}
}

func parseInvariant(s string) (map[string]int, error) {
	out := make(map[string]int)
	for _, part := range strings.Split(s, ",") {
		name, w, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("pnut-reach: invariant terms are place=weight, got %q", part)
		}
		weight, err := strconv.Atoi(strings.TrimSpace(w))
		if err != nil {
			return nil, fmt.Errorf("pnut-reach: bad weight in %q", part)
		}
		out[strings.TrimSpace(name)] = weight
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pnut-reach:", err)
	os.Exit(1)
}
