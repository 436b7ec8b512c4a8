package reach

import (
	"context"
	"slices"
	"sync"
)

// space is a state space explore walks. S is a successor candidate: a
// state plus the label of the edge reaching it. The space commits node
// 0 itself; explore commits every later node through commit.
type space[S any] interface {
	// expand calls succ for every successor of the committed nodes
	// [lo, hi) in (node, successor) order. Shards run it concurrently on
	// disjoint ranges, so it may only read committed state and shard
	// w's own buffers. An error, including a store's sticky error,
	// aborts the search.
	expand(w, lo, hi int, succ func(id int, s S)) error
	// hash is the dedup hash of s; its low bits pick the owning shard,
	// and its high 32 bits are the tag the dedup tables keep.
	// Shard w calls it on its own candidates once expand has returned.
	hash(s *S) uint64
	// holds reports whether committed node id holds s's state; shard w
	// calls it concurrently with the other shards.
	holds(w int, id int32, s *S) bool
	// same reports whether two candidates carry the same state.
	same(a, b *S) bool
	// open opens the commits of the window of nodes [lo,
	// lo+len(counts)): node lo+i has counts[i] candidates, total in all.
	// first is the first new id of the window's level, so a node at or
	// above it was committed during the current level. open runs at the
	// barrier, before the window's first commit.
	open(lo, first int, counts []int32, total int)
	// commit attaches s as a successor of node src, sequentially in
	// global candidate order. id is the node already holding s's state,
	// or -1 if it is new. It returns the edge's target (-1 if the state
	// was dropped) and whether to stop the search.
	commit(src int, s *S, id int32) (int32, bool)
}

// cand is one successor of a frontier window and its dedup hash.
type cand[S any] struct {
	s    S
	hash uint64
}

// resolved is the dedup verdict on one candidate: node is the committed
// node holding its state, dup the sequence number of an earlier
// candidate of the window with the same new state; both -1 mean a new
// state. Each shard writes the verdicts on the candidates it owns into
// its own segment of one array, so shards share a cache line only at
// segment ends.
type resolved struct {
	node, dup int32
}

// maxShards caps Options.Shards. Every shard past the first costs a
// goroutine, and every shard two dedup tables, per window, so an
// unchecked count from a job spec could exhaust memory; past the core
// count more shards buy nothing, and the graph is the same for every
// count.
const maxShards = 256

// shardCount resolves Options.Shards (0 or less = one shard, run on the
// caller's goroutine), clamped to maxShards. One shard is the default
// because the serial commit pass then reads candidates and tables its
// own core wrote, and sweep and server cells already run on a pool of
// workers of their own. Measured on 2 vCPUs: perfbench exact_analysis
// spent 41% more CPU per unit at two shards for no more units per
// second, and forkjoin_7x4 took 91.8 CPU ms and 88.6 wall ms per build
// at one shard against 125.5 and 83.0 at four.
func (o Options) shardCount() int {
	return min(max(o.Shards, 1), maxShards)
}

// fanOut runs work(w) for every shard w in [0, n) and returns once all
// have: shard 0 on the calling goroutine and each other shard on one
// of its own, so one shard starts no goroutine.
func fanOut(n int, work func(w int)) {
	if n == 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for w := 1; w < n; w++ {
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	work(0)
	wg.Wait()
}

// idTable is an open-addressing set of (tag, id) pairs with linear
// probing: one shard's dedup index. It holds no slice per key, so
// inserting allocates only when the table doubles. A tag is the high 32
// bits of a state's hash (tagOf), and the slot index is the tag's top
// bits, since the hash's low bits picked the shard; doubling therefore
// rehashes from the tags alone. The tag only filters probes: a match
// is confirmed by comparing states.
type idTable struct {
	slots []idSlot
	n     int
	shift uint     // 32 - log2(len(slots))
	_     [24]byte // pads the 40-byte header to a 64-byte cache line: shards write their own tables' n concurrently
}

// idSlot is one 8-byte table entry; id is stored plus one so that the
// zero slot is empty.
type idSlot struct {
	tag uint32
	id  int32
}

// reset empties t and sizes it for n entries at load factor at most
// 1/2, reusing its slots.
func (t *idTable) reset(n int) {
	size, shift := 8, uint(29)
	for size < 2*n {
		size, shift = size*2, shift-1
	}
	if cap(t.slots) < size {
		t.slots = make([]idSlot, size)
	}
	t.slots, t.n, t.shift = t.slots[:size], 0, shift
	clear(t.slots)
}

// tagOf is the part of hash h a table keeps: its high 32 bits.
func tagOf(h uint64) uint32 { return uint32(h >> 32) }

// lookup returns the id of the first entry with the given tag that eq
// accepts, or -1.
func (t *idTable) lookup(tag uint32, eq func(id int32) bool) int32 {
	mask := len(t.slots) - 1
	for i := int(tag >> t.shift); t.slots[i].id != 0; i = (i + 1) & mask {
		if s := t.slots[i]; s.tag == tag && eq(s.id-1) {
			return s.id - 1
		}
	}
	return -1
}

// insert adds (tag, id), doubling the table first if it would pass
// half full.
func (t *idTable) insert(tag uint32, id int32) {
	if 2*(t.n+1) > len(t.slots) {
		old := t.slots
		t.slots = nil
		t.reset(t.n + 1)
		for _, s := range old {
			if s.id != 0 {
				t.insert(s.tag, s.id-1)
			}
		}
	}
	mask := len(t.slots) - 1
	i := int(tag >> t.shift)
	for t.slots[i].id != 0 {
		i = (i + 1) & mask
	}
	t.slots[i] = idSlot{tag: tag, id: id + 1}
	t.n++
}

// BuildStats counts the work of one build. The counters are
// diagnostics: no CLI output, cell record or cache key carries them.
type BuildStats struct {
	Levels     int // frontier levels expanded
	Candidates int // successors generated, one per enabled firing
	LevelDups  int // candidates whose state an earlier candidate of the same level holds
	SeenHits   int // candidates whose state a node of an earlier level holds
}

// window is the most frontier nodes per shard that one round of
// explore expands: a wider level is explored in consecutive windows of
// window*shards nodes, so a round's buffers are sized by the window,
// not by the widest level. Measured on forkjoin_7x4 (2 vCPU), whose
// widest level is 8,135 states: BenchmarkBuildParallel allocated
// 18.7, 20.0 and 29.1 MB/op at one shard and 20.5, 29.1 and 34.9 at
// four for windows of 256, 1024 and 4096 (39.5 and 41.2 with
// level-wide buffers; medians of 3, ms/op within noise), and
// perfbench exact_analysis peaked at 33.5-35.7 MB RSS with 256 and
// 30.8-34.1 with 1024 over 4 runs each.
const window = 1024

// explore is the level-synchronized sharded-frontier search behind
// Build and BuildTimed. Each level is the id range [lo, hi) committed
// last round, in order, exactly like a serial FIFO queue, and it is
// explored in consecutive windows of at most window*shards nodes, in
// id order. Shards expand contiguous chunks of a window in parallel,
// shard 0 on the caller's goroutine (fanOut); each candidate's owning
// shard (hash % shards) resolves it against the shard's table of the
// window's earlier new candidates and, on a miss, its table of
// committed ids, which also holds the states the level's earlier
// windows committed; states are compared on every hash match. The two
// tables hold disjoint states: nothing commits while shards resolve,
// so the committed table is read-only, and a candidate enters the
// window's table only after missing it. The order of the probes
// therefore cannot change a verdict; the window's table goes first
// because most candidates repeat a state of their own window, and it
// is the smaller one. Then the window's candidates commit sequentially
// in (node, successor) order, which numbers new states exactly as the
// serial build does. The result is therefore bit-identical for any
// shard count. ctx is checked at every window barrier, where no
// goroutine is in flight, so a wide level can be cancelled part way.
// explore adds its counts to st.
func explore[S any](ctx context.Context, sp space[S], root S, shards int, st *BuildStats) error {
	seen := make([]idTable, shards) // per shard: committed (hash, id)
	pend := make([]idTable, shards) // per shard: the window's new (hash, seq)
	for w := range seen {
		seen[w].reset(0)
	}
	h0 := sp.hash(&root)
	seen[h0%uint64(shards)].insert(tagOf(h0), 0)

	var (
		outs     = make([][]cand[S], shards) // per-shard expansion
		errs     = make([]error, shards)
		byShard  = make([][]int32, shards)    // per shard: owned sequence numbers, ascending
		next     = make([]int, shards)        // per shard: its segment of res, then commit's cursor
		tally    = make([]BuildStats, shards) // per shard: the window's dedup verdict counts
		res      []resolved                   // verdicts, shard by shard, each in byShard order
		counts   []int32                      // successors per window node
		flat     []cand[S]                    // the window's candidates in global order
		assigned []int32                      // committed id per candidate
		n        = 1                          // the next new id
	)
	for lo, hi := 0, 1; lo < hi; lo, hi = hi, n {
		st.Levels++
		for a := lo; a < hi; a += window * shards {
			if err := ctx.Err(); err != nil {
				return err
			}
			b := min(a+window*shards, hi)
			counts = slices.Grow(counts[:0], b-a)[:b-a]
			clear(counts)
			chunk := (b - a + shards - 1) / shards
			fanOut((b-a+chunk-1)/chunk, func(w int) { // no shard gets a chunk past b
				out := outs[w][:0]
				errs[w] = sp.expand(w, a+w*chunk, min(a+(w+1)*chunk, b), func(id int, s S) {
					out = append(out, cand[S]{s: s})
					counts[id-a]++
				})
				for i := range out {
					out[i].hash = sp.hash(&out[i].s)
				}
				outs[w] = out
			})
			flat = flat[:0]
			for w := range outs {
				if errs[w] != nil {
					return errs[w]
				}
				flat = append(flat, outs[w]...)
				clear(outs[w]) // drop the window's states from the reused buffer
				outs[w] = outs[w][:0]
				byShard[w] = byShard[w][:0]
			}
			for seq := range flat {
				w := flat[seq].hash % uint64(shards)
				byShard[w] = append(byShard[w], int32(seq))
			}

			res = slices.Grow(res[:0], len(flat))[:len(flat)]
			for w, start := 0, 0; w < shards; w++ {
				next[w] = start
				start += len(byShard[w])
			}
			fanOut(shards, func(w int) {
				p := &pend[w]
				p.reset(p.n) // the last window's new states are the best guess at this one's
				r := res[next[w] : next[w]+len(byShard[w])]
				var dups, hits int
				for k, seq := range byShard[w] {
					c, tag := &flat[seq], tagOf(flat[seq].hash)
					v := resolved{node: -1, dup: p.lookup(tag, func(ps int32) bool { return sp.same(&flat[ps].s, &c.s) })}
					if v.dup >= 0 {
						dups++
					} else if v.node = seen[w].lookup(tag, func(id int32) bool { return sp.holds(w, id, &c.s) }); v.node >= int32(hi) {
						dups++ // committed by an earlier window of the level
					} else if v.node >= 0 {
						hits++
					} else {
						p.insert(tag, seq)
					}
					r[k] = v
				}
				tally[w].LevelDups, tally[w].SeenHits = dups, hits
			})
			st.Candidates += len(flat)
			for w := range tally {
				st.LevelDups += tally[w].LevelDups
				st.SeenHits += tally[w].SeenHits
				tally[w] = BuildStats{}
			}

			sp.open(a, hi, counts, len(flat))
			assigned = slices.Grow(assigned[:0], len(flat))[:len(flat)]
			seq := 0
			for i, cnt := range counts {
				for ; cnt > 0; cnt-- {
					c := &flat[seq]
					w := c.hash % uint64(shards)
					v := res[next[w]] // byShard[w] ascends, so one cursor per shard finds seq's verdict
					next[w]++
					id := v.node
					if id < 0 && v.dup >= 0 {
						id = assigned[v.dup]
					}
					nid, stop := sp.commit(a+i, &c.s, id)
					if stop {
						return nil
					}
					if id < 0 && nid >= 0 {
						seen[w].insert(tagOf(c.hash), nid)
						n++
					}
					assigned[seq] = nid
					seq++
				}
			}
			clear(flat)
		}
	}
	return nil
}
