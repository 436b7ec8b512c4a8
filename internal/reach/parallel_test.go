package reach

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/modelgen"
	"repro/internal/petri"
	"repro/internal/pipeline"
)

// graphsIdentical asserts bit-identity between two graphs, untimed or
// timed: same nodes, same edges in the same order, the same row at every
// id (which pins the markings, a timed state's timers and their id
// order, wherever the store keeps them) and same flags.
func graphsIdentical(t *testing.T, want, got *Graph) {
	t.Helper()
	if len(want.Nodes) != len(got.Nodes) {
		t.Fatalf("nodes: %d != %d", len(got.Nodes), len(want.Nodes))
	}
	for i := range want.Nodes {
		w, g := &want.Nodes[i], &got.Nodes[i]
		if w.ID != g.ID || len(w.Out) != len(g.Out) {
			t.Fatalf("node %d: id/out mismatch (%d edges vs %d)", i, len(g.Out), len(w.Out))
		}
		for j := range w.Out {
			if w.Out[j] != g.Out[j] {
				t.Fatalf("node %d edge %d: %+v != %+v", i, j, g.Out[j], w.Out[j])
			}
		}
	}
	rows := make([]string, len(got.Nodes))
	got.store.Span(0, len(got.Nodes), func(id int, _ petri.Marking, row []byte) bool {
		rows[id] = string(row)
		return true
	})
	want.store.Span(0, len(want.Nodes), func(id int, m petri.Marking, row []byte) bool {
		if string(row) != rows[id] {
			t.Fatalf("node %d row: %x != %x (marking %v)", id, rows[id], row, m)
		}
		return true
	})
	if err := got.store.Err(); err != nil {
		t.Fatalf("store: %v", err)
	}
	if want.Truncated != got.Truncated || want.CapExceeded != got.CapExceeded {
		t.Fatalf("flags: truncated %v/%v capExceeded %q/%q",
			got.Truncated, want.Truncated, got.CapExceeded, want.CapExceeded)
	}
}

// unboundedBranchNet grows without bound in two competing directions —
// exercises truncation and bound-cap detection under sharding.
func unboundedBranchNet() *petri.Net {
	b := petri.NewBuilder("unbounded_branch")
	b.Place("src", 1)
	b.Place("a", 0)
	b.Place("b", 0)
	b.Trans("grow_a").In("src").Out("src").Out("a")
	b.Trans("grow_b").In("src").Out("src").Out("b")
	return b.MustBuild()
}

// buildCase is one net and option set of the oracle property tests.
type buildCase struct {
	name string
	net  *petri.Net
	opt  Options
}

// untimedTestNets are the Build cases: the hand-written nets, the
// modelgen families and the paper's cached processor (the model the
// exact_analysis benchmark explores), plus truncation and bound-cap
// runs.
func untimedTestNets(t *testing.T) []buildCase {
	cached, err := pipeline.CacheProcessor(pipeline.DefaultParams(), pipeline.DefaultCacheParams())
	if err != nil {
		t.Fatal(err)
	}
	return append([]buildCase{
		{"mutex", mutexNet(t), Options{}},
		{"pipeline_8x3", modelgen.DeepPipeline(8, 3, 1), Options{}},
		{"pipeline_12x4", modelgen.DeepPipeline(12, 4, 2), Options{}},
		{"forkjoin_3x2", modelgen.ForkJoin(3, 2, 1), Options{}},
		{"forkjoin_4x3", modelgen.ForkJoin(4, 3, 3), Options{}},
		{"cache_processor", cached, Options{}},
		{"truncated", unboundedBranchNet(), Options{MaxStates: 500}},
		{"capped", unboundedBranchNet(), Options{MaxStates: 2000, BoundCap: 16}},
	}, append(wideTestNets(), scanTestNets()...)...)
}

// scanTestNets are the cases of expand's candidate scan, which tries
// only the transitions that read a marked place plus those without
// input arcs: a net of more than 64 transitions, so the candidate
// bitset spans two words; a source transition bounded only by an
// inhibitor arc; and a weighted input arc whose place is marked with
// fewer tokens than the weight.
func scanTestNets() []buildCase {
	const places, trans = 10, 70
	b := petri.NewBuilder("seventy")
	for p := 0; p < places; p++ {
		b.Place(fmt.Sprintf("p%d", p), []int{2, 1, 0, 0}[p%4])
	}
	for i := 0; i < trans; i++ {
		b.Trans(fmt.Sprintf("t%d", i)).In(fmt.Sprintf("p%d", i%places)).Out(fmt.Sprintf("p%d", (7*i+i/places+1)%places))
	}
	seventy := b.MustBuild()

	b = petri.NewBuilder("inhibited_source")
	b.Place("q", 0)
	b.Place("r", 0)
	b.Trans("gen").Out("q").Inhib("q", 3)
	b.Trans("move").In("q").Out("r").Inhib("r", 4)
	b.Trans("drain").In("r", 2)
	source := b.MustBuild()

	b = petri.NewBuilder("weight_short")
	b.Place("a", 3)
	b.Place("b", 0)
	b.Trans("pair").In("a", 2).Out("b")
	b.Trans("one").In("a").Out("b")
	b.Trans("back").In("b", 3).Out("a", 3)
	short := b.MustBuild()

	return []buildCase{
		{"seventy_transitions", seventy, Options{MaxStates: 3000}},
		{"inhibited_source", source, Options{}},
		{"weight_short", short, Options{}},
	}
}

// wideTestNets are the cases whose counts reach 128 or more, so their
// rows take more than one byte per place: the end-offset index of the
// in-memory store, the successor that cannot patch its parent row, and
// the bound-cap check on a wide row.
func wideTestNets() []buildCase {
	// Counts cross 127 mid-build, as the BFS levels deepen.
	mid := Options{MaxStates: 10_000, BoundCap: 130}

	// One weighted firing moves c from below 128 to above it, and the
	// reverse firing moves it back; tick moves tokens from c to d, which
	// itself crosses 127 late.
	b := petri.NewBuilder("weighted_128")
	b.Place("c", 120)
	b.Place("d", 0)
	b.Place("ready", 1)
	b.Place("done", 0)
	b.Place("x", 1)
	b.Place("y", 0)
	b.Trans("up").In("ready").Out("done").Out("c", 10)
	b.Trans("down").In("done").In("c", 10).Out("ready")
	b.Trans("tick").In("c").Out("d")
	b.Trans("xy").In("x").Out("y")
	b.Trans("yx").In("y").Out("x")
	weighted := b.MustBuild()

	// The initial marking itself is wide: node 0's successors cannot
	// patch its row.
	b = petri.NewBuilder("wide_root")
	b.Place("pool", 130)
	b.Place("a", 0)
	b.Place("b", 0)
	b.Trans("take_a").In("pool").Out("a")
	b.Trans("take_b").In("pool").Out("b")
	b.Trans("ret_a").In("a").Out("pool")
	b.Trans("ret_b").In("b").Out("pool")
	wideRoot := b.MustBuild()

	return []buildCase{
		{"wide_mid_build", unboundedBranchNet(), mid},
		{"weighted_128", weighted, Options{}},
		{"wide_root", wideRoot, Options{}},
	}
}

// TestParallelBuildMatchesSerial is the canonical-numbering property
// test: for every shard count the parallel Build must reproduce the
// serial oracle bit for bit — node ids, edge order, store bytes and
// flags.
func TestParallelBuildMatchesSerial(t *testing.T) {
	for _, tc := range untimedTestNets(t) {
		t.Run(tc.name, func(t *testing.T) {
			want, err := BuildSerial(context.Background(), tc.net, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d states, %d store bytes", tc.name, len(want.Nodes), want.StoreBytes())
			for _, shards := range []int{1, 2, 8} {
				opt := tc.opt
				opt.Shards = shards
				got, err := Build(context.Background(), tc.net, opt)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				graphsIdentical(t, want, got)
			}
		})
	}
}

// collidingSpace gives every candidate the same hash: all states land
// in one shard and one probe run of each dedup table, so every dedup
// decision goes through the committed (holds) and pending (same) state
// comparisons that the 64-bit hashes never exercise on the test nets.
type collidingSpace[S any] struct{ space[S] }

func (collidingSpace[S]) hash(*S) uint64 { return 0x5eed }

// TestBuildsMatchOraclesWithHashCollisions runs both builders with
// every hash colliding; the graphs must still match the oracles bit
// for bit for every shard count. One probe run makes dedup quadratic, so
// each case is capped at collisionMaxStates (the larger nets then also
// cover truncation under collisions).
func TestBuildsMatchOraclesWithHashCollisions(t *testing.T) {
	const collisionMaxStates = 128
	ctx := context.Background()
	capped := func(cases []buildCase) []buildCase {
		for i := range cases {
			if o := &cases[i].opt; o.MaxStates == 0 || o.MaxStates > collisionMaxStates {
				o.MaxStates = collisionMaxStates
			}
		}
		return cases
	}
	for _, tc := range capped(untimedTestNets(t)) {
		t.Run(tc.name, func(t *testing.T) {
			want, err := BuildSerial(ctx, tc.net, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 8} {
				opt := tc.opt
				opt.Shards = shards
				sp, err := newGraphSpace(tc.net, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sp.finish(explore[rowSucc](ctx, collidingSpace[rowSucc]{sp}, sp.root, sp.shards, &sp.g.Stats))
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				graphsIdentical(t, want, got)
			}
		})
	}
	for _, tc := range capped(timedTestNets(t)) {
		t.Run("timed_"+tc.name, func(t *testing.T) {
			want, err := BuildTimedSerial(ctx, tc.net, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			for _, shards := range []int{1, 2, 8} {
				opt := tc.opt
				opt.Shards = shards
				sp, err := newTimedSpace(tc.net, opt)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sp.finish(explore[rowSucc](ctx, collidingSpace[rowSucc]{sp}, sp.root, sp.shards, &sp.g.Stats))
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				timedGraphsIdentical(t, want, got)
			}
		})
	}
}

// TestTruncationNeverExceedsMaxStates is the regression test for the
// truncation short-circuit: construction stops the moment MaxStates is
// hit, so the node count can never exceed the cap — for either builder
// and any shard count.
func TestTruncationNeverExceedsMaxStates(t *testing.T) {
	net := unboundedBranchNet()
	for _, max := range []int{1, 2, 7, 50, 333} {
		opt := Options{MaxStates: max}
		for _, build := range []struct {
			name string
			fn   func(context.Context, *petri.Net, Options) (*Graph, error)
		}{
			{"serial", BuildSerial},
			{"parallel", func(ctx context.Context, n *petri.Net, o Options) (*Graph, error) {
				o.Shards = 4
				return Build(ctx, n, o)
			}},
		} {
			g, err := build.fn(context.Background(), net, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !g.Truncated {
				t.Errorf("%s max=%d: not truncated", build.name, max)
			}
			if len(g.Nodes) > max {
				t.Errorf("%s max=%d: %d nodes exceed the cap", build.name, max, len(g.Nodes))
			}
		}
	}
}

// TestStoreRoundTripThroughGraph checks, on a sharded build, that no
// marking is committed twice and that MarkingOf and EachMarking agree
// at every id. Forced hash collisions are covered by
// TestBuildsMatchOraclesWithHashCollisions.
func TestStoreRoundTripThroughGraph(t *testing.T) {
	net := modelgen.DeepPipeline(9, 3, 7)
	g, err := Build(context.Background(), net, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int, len(g.Nodes))
	g.EachMarking(func(id int, m petri.Marking) bool {
		key := m.Key()
		if prev, dup := seen[key]; dup {
			t.Fatalf("marking of node %d duplicates node %d: %s", id, prev, key)
		}
		seen[key] = id
		if one := g.MarkingOf(id); !one.Equal(m) {
			t.Fatalf("node %d: MarkingOf %v != EachMarking %v", id, one, m)
		}
		return true
	})
	if len(seen) != len(g.Nodes) {
		t.Fatalf("scanned %d markings for %d nodes", len(seen), len(g.Nodes))
	}
}

// TestShardsClamped is the regression test for an unbounded shard
// count from a job spec: explore starts a goroutine and sizes two
// tables per shard on every level, so Shards: 1<<30 on a 3-state net
// would run for minutes and take gigabytes. The count is clamped to
// maxShards, which cannot change the graph.
func TestShardsClamped(t *testing.T) {
	if got := (Options{Shards: 1 << 30}).shardCount(); got != maxShards {
		t.Fatalf("shardCount(1<<30) = %d, want %d", got, maxShards)
	}
	net := mutexNet(t)
	want, err := BuildSerial(context.Background(), net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Build(context.Background(), net, Options{Shards: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	graphsIdentical(t, want, got)
}

// TestBuildStats checks the build counters against the graphs they
// describe: every candidate of an untruncated build is one edge and
// either a new state, a repeat within its level or a committed state;
// and since the verdicts do not depend on the shard count, neither do
// the counts.
func TestBuildStats(t *testing.T) {
	ctx := context.Background()
	var want BuildStats
	for _, shards := range []int{1, 3} {
		g, err := Build(ctx, modelgen.ForkJoin(4, 3, 3), Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		edges := 0
		for i := range g.Nodes {
			edges += len(g.Nodes[i].Out)
		}
		st := g.Stats
		if st.Candidates != edges || st.Candidates-st.LevelDups-st.SeenHits != len(g.Nodes)-1 || st.Levels == 0 {
			t.Fatalf("shards=%d: %+v for %d nodes and %d edges", shards, st, len(g.Nodes), edges)
		}
		if shards == 1 {
			want = st
		} else if st != want {
			t.Fatalf("shards=%d: %+v, want %+v as at one shard", shards, st, want)
		}
	}
	net, err := pipeline.Processor(pipeline.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tg, err := BuildTimed(ctx, net, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	edges := 0
	for _, n := range tg.Nodes {
		edges += len(n.Out)
	}
	if st := tg.Stats; st.Candidates != edges || st.Candidates-st.LevelDups-st.SeenHits != len(tg.Nodes)-1 {
		t.Fatalf("timed: %+v for %d nodes and %d edges", st, len(tg.Nodes), edges)
	}
}

// TestBuildAllocsPerState is the exploration core's allocation budget,
// in the spirit of sim's TestRunAllocsPerEvent: candidates live in
// reused per-shard arenas, dedup in open-addressing tables and edges in
// one block per level, so a build allocates only as its buffers grow
// and per level, never per state. The net is forkjoin_7x4, the 78,126-state
// space the exact_analysis benchmark explores every unit.
func TestBuildAllocsPerState(t *testing.T) {
	net := modelgen.ForkJoin(7, 4, 1)
	for _, shards := range []int{1, 2} {
		var states int
		allocs := testing.AllocsPerRun(1, func() {
			g, err := Build(context.Background(), net, Options{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			states = len(g.Nodes)
		})
		if per := allocs / float64(states); per >= 0.05 {
			t.Errorf("shards=%d: %.0f allocations for %d states = %.3f per state, want < 0.05", shards, allocs, states, per)
		}
	}
}

// TestBuildAllocBytesPerState bounds the bytes one forkjoin_7x4 build
// allocates per state at one shard. The store's rows grow by doubling
// rather than by append's 1.25x for large slices, which would copy them
// several times over; each window's edges take one block of exactly the
// window's size; and the frontier's scratch is sized by a window, not
// by the widest level (8,135 states, 46,403 candidates). A build
// allocates about 256 B/state; with level-wide scratch it took 505.
func TestBuildAllocBytesPerState(t *testing.T) {
	const bound = 350
	net := modelgen.ForkJoin(7, 4, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := Build(context.Background(), net, Options{Shards: 1})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if per := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(g.Nodes)); per > bound {
		t.Errorf("%.0f bytes allocated for %d states = %.0f B/state, want at most %d", float64(after.TotalAlloc-before.TotalAlloc), len(g.Nodes), per, bound)
	}
}

// BenchmarkBuildParallel times Build on two generated nets; forkjoin_7x4
// is the net the exact_analysis perfbench workload explores every unit.
// Besides the allocations it reports throughput and the live heap the
// finished graph holds per state: nodes plus edges plus store, measured
// once after a collection with the graph still reachable. The spill row
// builds forkjoin_7x4 again with a 64 KiB budget, so most blocks of rows
// go through the spill file; it also reports the bytes spilled per
// state, and fails if nothing spilled, which would make it measure the
// in-memory path.
func BenchmarkBuildParallel(b *testing.B) {
	for _, bc := range []struct {
		name string
		net  *petri.Net
		opt  Options
	}{
		{"pipeline_12x5", modelgen.DeepPipeline(12, 5, 1), Options{}},
		{"forkjoin_7x4", modelgen.ForkJoin(7, 4, 1), Options{}},
		{"forkjoin_7x4/spill", modelgen.ForkJoin(7, 4, 1), Options{SpillBudget: 64 << 10, SpillDir: b.TempDir()}},
	} {
		for _, shards := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/shards=%d", bc.name, shards), func(b *testing.B) {
				opt := bc.opt
				opt.Shards = shards
				build := func() *Graph {
					g, err := Build(context.Background(), bc.net, opt)
					if err != nil {
						b.Fatal(err)
					}
					return g
				}
				var ms runtime.MemStats
				runtime.GC()
				runtime.ReadMemStats(&ms)
				before := ms.HeapAlloc
				g := build()
				runtime.GC()
				runtime.ReadMemStats(&ms)
				states := float64(len(g.Nodes))
				resident := float64(ms.HeapAlloc-before) / states
				spilled := g.SpilledBytes()
				g.Close()
				if opt.SpillBudget > 0 && spilled == 0 {
					b.Fatalf("a %d-byte budget spilled nothing over %.0f states", opt.SpillBudget, states)
				}

				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					build().Close()
				}
				b.StopTimer()
				b.ReportMetric(states, "states")
				b.ReportMetric(states*float64(b.N)/b.Elapsed().Seconds(), "states/s")
				b.ReportMetric(float64(testing.AllocsPerRun(1, func() { build().Close() }))/states, "allocs/state")
				b.ReportMetric(resident, "resident-B/state")
				b.ReportMetric(float64(g.Stats.LevelDups)/float64(g.Stats.Candidates), "level-dup-frac")
				if opt.SpillBudget > 0 {
					b.ReportMetric(float64(spilled)/states, "spilled-B/state")
				}
			})
		}
	}
}
