package reach

import (
	"context"
	"testing"

	"repro/internal/petri"
	"repro/internal/pipeline"
)

// timedGraphsIdentical asserts bit-identity between two timed graphs:
// same node ids, markings, timer vectors, edge order and flags.
func timedGraphsIdentical(t *testing.T, want, got *TimedGraph) {
	t.Helper()
	if len(want.Nodes) != len(got.Nodes) {
		t.Fatalf("nodes: %d != %d", len(got.Nodes), len(want.Nodes))
	}
	if want.Truncated != got.Truncated {
		t.Fatalf("truncated: %v != %v", got.Truncated, want.Truncated)
	}
	for i := range want.Nodes {
		w, g := want.Nodes[i], got.Nodes[i]
		if w.ID != g.ID || !w.Marking.Equal(g.Marking) {
			t.Fatalf("node %d: id/marking mismatch: %v != %v", i, g.Marking, w.Marking)
		}
		if timedKey(w) != timedKey(g) {
			t.Fatalf("node %d: state key %q != %q", i, timedKey(g), timedKey(w))
		}
		if len(w.Out) != len(g.Out) {
			t.Fatalf("node %d: %d edges, want %d", i, len(g.Out), len(w.Out))
		}
		for j := range w.Out {
			if w.Out[j] != g.Out[j] {
				t.Fatalf("node %d edge %d: %+v != %+v", i, j, g.Out[j], w.Out[j])
			}
		}
	}
}

// timedTestNets are hand-built constant-delay nets covering the timed
// semantics — firing durations, enabling races, server caps, conflict
// over shared tokens and (for the truncation case) unbounded growth —
// plus the paper's processor at its default parameters and at one
// other design point (the models the exact_analysis benchmark solves).
func timedTestNets(t *testing.T) []buildCase {
	processor := func(p pipeline.Params) *petri.Net {
		net, err := pipeline.Processor(p)
		if err != nil {
			t.Fatal(err)
		}
		return net
	}
	fast := pipeline.DefaultParams()
	fast.MemoryCycles, fast.BufferWords, fast.EACyclesPerOperand = 2, 4, 1
	ring := func() *petri.Net {
		b := petri.NewBuilder("const_ring")
		b.Place("pa", 2)
		b.Place("pb", 0)
		b.Trans("ab").In("pa").Out("pb").FiringConst(2)
		b.Trans("ba").In("pb").Out("pa").FiringConst(3).EnablingConst(1)
		return b.MustBuild()
	}
	race := func() *petri.Net {
		b := petri.NewBuilder("enab_race")
		b.Place("p", 2)
		b.Place("won_fast", 0)
		b.Place("won_slow", 0)
		b.Place("back", 0)
		b.Trans("fast").In("p").Out("won_fast").EnablingConst(2)
		b.Trans("slow").In("p").Out("won_slow").EnablingConst(5)
		b.Trans("rf").In("won_fast").Out("back").FiringConst(1)
		b.Trans("rs").In("won_slow").Out("back").FiringConst(2)
		b.Trans("home").In("back").Out("p").FiringConst(3)
		return b.MustBuild()
	}
	servers := func() *petri.Net {
		b := petri.NewBuilder("single_server")
		b.Place("q", 3)
		b.Place("d", 0)
		b.Trans("serve").In("q").Out("d").FiringConst(4).Servers(1)
		b.Trans("recycle").In("d").Out("q").FiringConst(1)
		return b.MustBuild()
	}
	grow := func() *petri.Net {
		b := petri.NewBuilder("timed_unbounded")
		b.Place("src", 1)
		b.Place("a", 0)
		b.Place("b", 0)
		b.Trans("grow_a").In("src").Out("src").Out("a").FiringConst(1)
		b.Trans("grow_b").In("src").Out("src").Out("b").FiringConst(2)
		return b.MustBuild()
	}
	return []buildCase{
		{"const_ring", ring(), Options{}},
		{"enab_race", race(), Options{}},
		{"single_server", servers(), Options{}},
		{"untimed_mutex", mutexNet(t), Options{}},
		{"processor", processor(pipeline.DefaultParams()), Options{}},
		{"processor_m2_b4", processor(fast), Options{}},
		{"truncated", grow(), Options{MaxStates: 200}},
	}
}

// TestParallelBuildTimedMatchesSerial is the timed canonical-numbering
// property test: for every shard count the parallel BuildTimed must
// reproduce the serial FIFO oracle bit for bit — including after
// truncation, where both keep attaching edges between already-interned
// states.
func TestParallelBuildTimedMatchesSerial(t *testing.T) {
	for _, tc := range timedTestNets(t) {
		t.Run(tc.name, func(t *testing.T) {
			want, err := BuildTimedSerial(context.Background(), tc.net, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d states, truncated=%v", tc.name, len(want.Nodes), want.Truncated)
			for _, shards := range []int{1, 2, 8} {
				opt := tc.opt
				opt.Shards = shards
				got, err := BuildTimed(context.Background(), tc.net, opt)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				timedGraphsIdentical(t, want, got)
			}
		})
	}
}
