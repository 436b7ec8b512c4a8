package reach

import (
	"context"
	"slices"
	"testing"

	"repro/internal/petri"
	"repro/internal/pipeline"
)

// timedGraphsIdentical asserts that got, a row-based timed graph, is
// the oracle graph want: the same node count and truncation flag, and
// per node the same marking, pending and enabling timers, edges in
// order, time advance and deadlock flag.
func timedGraphsIdentical(t *testing.T, want *TimedGraph, got *Graph) {
	t.Helper()
	if len(want.Nodes) != len(got.Nodes) {
		t.Fatalf("nodes: %d != %d", len(got.Nodes), len(want.Nodes))
	}
	if want.Truncated != got.Truncated {
		t.Fatalf("truncated: %v != %v", got.Truncated, want.Truncated)
	}
	places := want.Net.NumPlaces()
	for i, w := range want.Nodes {
		if m := got.MarkingOf(i); w.ID != got.Nodes[i].ID || !w.Marking.Equal(m) {
			t.Fatalf("node %d: id/marking mismatch: %v != %v", i, m, w.Marking)
		}
		var pend, enab []Remaining
		var scratch []byte
		walkTimers(got.store.Row(i, &scratch), places, func(pending bool, tm timer) {
			r := Remaining{Trans: petri.TransID(tm.t), Left: tm.left}
			if pending {
				pend = append(pend, r)
			} else {
				enab = append(enab, r)
			}
		})
		if !slices.Equal(pend, w.Pending) || !slices.Equal(enab, w.Enab) {
			t.Fatalf("node %d: timers %v | %v, want %v | %v", i, pend, enab, w.Pending, w.Enab)
		}
		out := got.Nodes[i].Out
		if len(w.Out) != len(out) {
			t.Fatalf("node %d: %d edges, want %d", i, len(out), len(w.Out))
		}
		for j, we := range w.Out {
			ge := TimedEdge{Trans: petri.TransID(out[j].Trans), To: int(out[j].To)}
			if ge.Trans == TimeAdvance {
				ge.Delta = got.Advance(i)
			}
			if ge != we {
				t.Fatalf("node %d edge %d: %+v != %+v", i, j, ge, we)
			}
		}
		if want.Deadlocked(i) != got.Deadlocked(i) {
			t.Fatalf("node %d: deadlocked %v, want %v", i, got.Deadlocked(i), want.Deadlocked(i))
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
			for _, shards := range []int{1, 2, 3, 8} {
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
