// Verification: Section 4.4's debugging story, executed. "An error in
// the model (for example a non-zero timing in a transition) may cause a
// token to be removed from both places at the same time" — here we
// build the bus model twice: once correctly (instantaneous handoffs)
// and once with exactly that bug (a firing time on the transition that
// moves the token from Bus_free to Bus_busy), and show how each layer
// of the toolset catches it:
//
//  1. the trace query `forall s in S [Bus_busy(s)+Bus_free(s) <= 1 ]`
//     plus the settledness query find the anomaly in one simulation run;
//
//  2. the reachability analyzer *proves* the invariant for the correct
//     model and produces a counterexample state for the buggy one;
//
//  3. the statistics silently look plausible in both — the paper's
//     warning about validating models by eyeballing performance data.
//
//     go run ./examples/verification
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/petri"
	"repro/internal/query"
	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// busModel builds a two-customer bus; handoffTime injects the bug.
func busModel(handoffTime petri.Time) *petri.Net {
	b := petri.NewBuilder("bus_model")
	b.Place("Bus_free", 1)
	b.Place("Bus_busy", 0)
	b.Place("want", 2)
	b.Place("using", 0)
	b.Place("done", 0)
	tb := b.Trans("take").In("want").In("Bus_free").Out("using").Out("Bus_busy")
	if handoffTime > 0 {
		tb.FiringConst(handoffTime) // THE BUG: the handoff is not instantaneous
	}
	b.Trans("release").In("using").In("Bus_busy").Out("done").Out("Bus_free").EnablingConst(5)
	b.Trans("recycle").In("done").Out("want").EnablingConst(2)
	return b.MustBuild()
}

func main() {
	for _, cfg := range []struct {
		name    string
		handoff petri.Time
	}{
		{"correct model (instantaneous handoff)", 0},
		{"buggy model (firing time 2 on the handoff)", 2},
	} {
		fmt.Printf("=== %s ===\n", cfg.name)
		net := busModel(cfg.handoff)

		// 1. Simulation + trace queries.
		h := trace.HeaderOf(net)
		s := stats.New(h)
		qb := query.NewBuilder(h)
		if _, err := sim.Run(context.Background(), net, trace.Tee{s, qb}, sim.Options{Horizon: 5_000, Seed: 1}); err != nil {
			log.Fatal(err)
		}
		seq := qb.Seq()
		// In a correct model the bus token is out of both places only
		// for an instant (a zero-duration state between the Start and
		// End records of the handoff); in the buggy model the token is
		// gone for 2 whole ticks. dur(s) — the logic analyzer's pulse
		// width — separates the two in a single simulation run.
		res, err := query.Check(seq,
			"exists s in S [ Bus_busy(s) + Bus_free(s) == 0 && dur(s) > 0 ]")
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  query: bus token missing for measurable time: %v", res.Holds)
		if res.Witness >= 0 {
			fmt.Printf("   (witness #%d at t=%d)", res.Witness, seq.Time(res.Witness))
		}
		fmt.Println()
		util, _ := s.Utilization("Bus_busy")
		th, _ := s.Throughput("release")
		fmt.Printf("  stats alone look plausible either way: bus util %.3f, throughput %.3f\n", util, th)

		// 2. Reachability: prove or refute over ALL behaviours. In the
		// timed graph the buggy model has a state where the token is
		// absent from both places AND time can pass (a time-advance
		// edge) — the correct model's in-limbo states pass in zero time.
		tg, err := reach.BuildTimed(context.Background(), net, reach.Options{})
		if err != nil {
			log.Fatal(err)
		}
		broken := reach.MustAtom("Bus_busy + Bus_free == 0")
		holdsSomewhere := reach.Holds(tg, reach.EF(broken))
		// Does a broken state persist across a time advance?
		persists := false
		tg.EachMarking(func(id int, m petri.Marking) bool {
			sum := 0
			if p, ok := net.PlaceID("Bus_busy"); ok {
				sum += m[p]
			}
			if p, ok := net.PlaceID("Bus_free"); ok {
				sum += m[p]
			}
			if sum != 0 {
				return true
			}
			for _, e := range tg.Nodes[id].Out {
				if e.Trans == reach.TimeAdvance && tg.Advance(id) > 0 {
					persists = true
				}
			}
			return true
		})
		fmt.Printf("  reachability: token-less state exists: %v; persists across time: %v\n",
			holdsSomewhere, persists)
		if persists {
			fmt.Printf("  -> BUG: the bus vanishes for measurable time; fix: make the handoff instantaneous\n")
		}
		fmt.Println()
	}
}
