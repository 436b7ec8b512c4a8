package reach

import (
	"context"
	"fmt"
	"math/bits"
	"sync"
	"testing"

	"repro/internal/modelgen"
	"repro/internal/petri"
)

// levelStarts returns the first id of every BFS level of a graph whose
// ids are in BFS order, given each node's successors, plus the node
// count as a final bound.
func levelStarts(nodes int, succ func(id int) []int) []int {
	depth := make([]int, nodes)
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	starts := []int{0}
	for id := 0; id < nodes; id++ {
		for _, to := range succ(id) {
			if depth[to] < 0 {
				depth[to] = depth[id] + 1
				if depth[to] == len(starts) {
					starts = append(starts, to)
				}
			}
		}
	}
	return append(starts, nodes)
}

// graphLevels returns levelStarts of an untimed graph.
func graphLevels(g *Graph) []int {
	return levelStarts(len(g.Nodes), func(id int) []int {
		var to []int
		for _, e := range g.Nodes[id].Out {
			to = append(to, int(e.To))
		}
		return to
	})
}

// widestLevel returns the bounds of the widest level of starts.
func widestLevel(starts []int) (lo, hi int) {
	for i := 0; i+1 < len(starts); i++ {
		if starts[i+1]-starts[i] > hi-lo {
			lo, hi = starts[i], starts[i+1]
		}
	}
	return lo, hi
}

// levelOf returns the bounds of the level of starts that holds id.
func levelOf(starts []int, id int) (lo, hi int) {
	for i := 0; i+1 < len(starts); i++ {
		if id < starts[i+1] {
			return starts[i], starts[i+1]
		}
	}
	return starts[len(starts)-1], starts[len(starts)-1]
}

// independentTimedNet is n one-token loops with a firing time of 1: the
// states that have started k loops form timed level k, so the widest
// level holds C(n, n/2) states.
func independentTimedNet(n int) *petri.Net {
	b := petri.NewBuilder(fmt.Sprintf("independent_%d", n))
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("p%d", i)
		b.Place(p, 1)
		b.Trans(fmt.Sprintf("t%d", i)).In(p).Out(p).FiringConst(1)
	}
	return b.MustBuild()
}

// TestWideLevelsMatchOracles holds the windowed frontier to the serial
// oracles on levels that span several windows: forkjoin_7x4's widest
// level is 8,135 states, so each shard count below explores it in at
// least three windows, and the later windows dedup against states the
// earlier ones committed. Both stores run, untruncated and with a
// MaxStates that stops the build inside a later window of a level. An
// untruncated build's BuildStats must split the edges as the serial
// graph's levels do, whatever the window. The timed build runs on a net
// whose widest level spans two windows at one shard.
func TestWideLevelsMatchOracles(t *testing.T) {
	ctx := context.Background()
	net := modelgen.ForkJoin(7, 4, 1)
	const truncated = 50_000
	full, err := BuildSerial(ctx, net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer full.Close()
	cut, err := BuildSerial(ctx, net, Options{MaxStates: truncated})
	if err != nil {
		t.Fatal(err)
	}
	defer cut.Close()
	starts := graphLevels(full)
	if lo, hi := widestLevel(starts); hi-lo <= 2*window*3 {
		t.Fatalf("widest level [%d, %d) spans fewer than three windows of %d nodes at 3 shards", lo, hi, 3*window)
	}
	// The serial graph's own split of its edges: a repeat is a level
	// duplicate when its target is new in the level after its source's.
	wantStats := BuildStats{Levels: len(starts) - 1}
	reached := make([]bool, len(full.Nodes))
	for src := range full.Nodes {
		_, hi := levelOf(starts, src)
		for _, e := range full.Nodes[src].Out {
			switch {
			case e.To > 0 && !reached[e.To]:
				reached[e.To] = true
			case int(e.To) >= hi:
				wantStats.LevelDups++
			default:
				wantStats.SeenHits++
			}
		}
		wantStats.Candidates += len(full.Nodes[src].Out)
	}
	partial := -1 // the node the truncated builds stop in
	for _, tc := range []struct {
		max  int
		want *Graph
	}{{0, full}, {truncated, cut}} {
		for _, shards := range []int{1, 2, 3} {
			for _, store := range []string{"mem", "spill"} {
				t.Run(fmt.Sprintf("max=%d/shards=%d/%s", tc.max, shards, store), func(t *testing.T) {
					opt := Options{MaxStates: tc.max, Shards: shards}
					if store == "spill" {
						opt.SpillBudget, opt.SpillDir = 64<<10, t.TempDir()
					}
					got, err := Build(ctx, net, opt)
					if err != nil {
						t.Fatal(err)
					}
					defer got.Close()
					graphsIdentical(t, tc.want, got)
					switch {
					case !got.Truncated:
						if got.Stats != wantStats {
							t.Fatalf("stats %+v, the serial graph's split is %+v", got.Stats, wantStats)
						}
					case partial < 0:
						partial = firstCut(got)
						if lo, _ := levelOf(starts, partial); partial-lo < window*3 {
							t.Fatalf("MaxStates %d stops in node %d, in the first window of level %d at 3 shards", tc.max, partial, lo)
						}
					case firstCut(got) != partial:
						t.Fatalf("truncated in node %d, at one shard in %d", firstCut(got), partial)
					}
				})
			}
		}
	}

	tnet := independentTimedNet(13)
	twant, err := BuildTimedSerial(ctx, tnet, Options{})
	if err != nil {
		t.Fatal(err)
	}
	starts = levelStarts(len(twant.Nodes), func(id int) []int {
		var to []int
		for _, e := range twant.Nodes[id].Out {
			to = append(to, e.To)
		}
		return to
	})
	if lo, hi := widestLevel(starts); hi-lo <= window {
		t.Fatalf("widest timed level [%d, %d) fits one window of %d nodes", lo, hi, window)
	}
	for _, shards := range []int{1, 2, 3} {
		got, err := BuildTimed(ctx, tnet, Options{Shards: shards})
		if err != nil {
			t.Fatalf("timed shards=%d: %v", shards, err)
		}
		timedGraphsIdentical(t, twant, got)
	}
}

// firstCut returns the first node g's truncation left not fully
// expanded, or -1.
func firstCut(g *Graph) int {
	for i, word := range g.cut {
		if word != 0 {
			return i*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// cancellingSpace cancels its context when a shard starts expanding
// node at, and records the highest node any expansion reached.
type cancellingSpace[S any] struct {
	space[S]
	at     int
	cancel context.CancelFunc
	mu     sync.Mutex
	maxHi  int
}

func (c *cancellingSpace[S]) expand(w, lo, hi int, succ func(int, S)) error {
	c.mu.Lock()
	c.maxHi = max(c.maxHi, hi)
	if lo <= c.at && c.at < hi {
		c.cancel()
	}
	c.mu.Unlock()
	return c.space.expand(w, lo, hi, succ)
}

// TestWideLevelCancelled cancels the build while the first window of
// forkjoin_7x4's widest level expands: explore must return
// context.Canceled at the next window barrier, before any shard expands
// the level's last window.
func TestWideLevelCancelled(t *testing.T) {
	net := modelgen.ForkJoin(7, 4, 1)
	full, err := Build(context.Background(), net, Options{Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := widestLevel(graphLevels(full))
	for _, shards := range []int{1, 2} {
		if hi-lo <= window*shards {
			t.Fatalf("widest level [%d, %d) fits one window at %d shards", lo, hi, shards)
		}
		ctx, cancel := context.WithCancel(context.Background())
		sp, err := newGraphSpace(net, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		cs := &cancellingSpace[rowSucc]{space: sp, at: lo, cancel: cancel}
		g, err := sp.finish(explore[rowSucc](ctx, cs, sp.root, sp.shards, &sp.g.Stats))
		cancel()
		if err != context.Canceled || g != nil {
			t.Fatalf("shards=%d: got a graph %v and err %v, want context.Canceled", shards, g != nil, err)
		}
		if lastStart := lo + (hi-lo-1)/(window*shards)*(window*shards); cs.maxHi > lastStart {
			t.Fatalf("shards=%d: expansion reached node %d of level [%d, %d), whose last window starts at %d", shards, cs.maxHi-1, lo, hi, lastStart)
		}
	}
}
