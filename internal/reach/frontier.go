package reach

import (
	"context"
	"runtime"
	"slices"
	"sync"
)

// space is a state space explore walks. S is a successor candidate: a
// state plus the label of the edge reaching it. The space commits node
// 0 itself; explore commits every later node through commit.
type space[S any] interface {
	// expand calls succ for every successor of the committed nodes
	// [lo, hi) in (node, successor) order. Shards run it concurrently on
	// disjoint ranges, so it may only read committed state. An error,
	// including a store's sticky error, aborts the search.
	expand(w, lo, hi int, succ func(id int, s S)) error
	// hash is the dedup hash of s; its low bits pick the owning shard.
	hash(s *S) uint64
	// holds reports whether committed node id holds s's state; shard w
	// calls it concurrently with the other shards.
	holds(w int, id int32, s *S) bool
	// same reports whether two candidates carry the same state.
	same(a, b *S) bool
	// commit attaches s as a successor of node src, sequentially in
	// global candidate order. id is the node already holding s's state,
	// or -1 if it is new. It returns the edge's target (-1 if the state
	// was dropped) and whether to stop the search.
	commit(src int, s *S, id int32) (int32, bool)
}

// cand is one successor of a frontier level. Dedup resolves it: node is
// the committed node holding its state, dup the sequence number of an
// earlier candidate of the level with the same new state; both -1 mean
// a new state.
type cand[S any] struct {
	s         S
	hash      uint64
	node, dup int32
}

// shardCount resolves Options.Shards (0 or less = GOMAXPROCS).
func (o Options) shardCount() int {
	if o.Shards <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Shards
}

// explore is the level-synchronized sharded-frontier search behind
// Build and BuildTimed. Each level is the id range [lo, hi) committed
// last round, in order, exactly like a serial FIFO queue. Shards
// expand contiguous chunks of it in parallel; each candidate's owning
// shard (hash % shards) resolves it against the shard's committed ids
// and the level's earlier candidates, chaining hash collisions; then
// the candidates commit sequentially in (node, successor) order, which
// numbers new states exactly as the serial build does. The result is
// therefore bit-identical for any shard count. ctx is checked at every
// level barrier, where no goroutine is in flight.
func explore[S any](ctx context.Context, sp space[S], root S, shards int) error {
	seen := make([]map[uint64][]int32, shards) // per shard: hash -> committed ids
	for i := range seen {
		seen[i] = make(map[uint64][]int32)
	}
	h0 := sp.hash(&root)
	seen[h0%uint64(shards)][h0] = []int32{0}

	var (
		outs     = make([][]cand[S], shards) // per-shard expansion
		errs     = make([]error, shards)
		byShard  = make([][]int32, shards) // per shard: owned sequence numbers
		counts   []int32                   // successors per level node
		flat     []cand[S]                 // the level's candidates in global order
		assigned []int32                   // committed id per candidate
		wg       sync.WaitGroup
	)
	for lo, hi := 0, 1; lo < hi; {
		if err := ctx.Err(); err != nil {
			return err
		}
		counts = slices.Grow(counts[:0], hi-lo)[:hi-lo]
		clear(counts)
		chunk := (hi - lo + shards - 1) / shards
		for w := 0; w < shards && lo+w*chunk < hi; w++ {
			wg.Add(1)
			go func(w, a, b int) {
				defer wg.Done()
				out := outs[w][:0]
				errs[w] = sp.expand(w, a, b, func(id int, s S) {
					out = append(out, cand[S]{s: s})
					c := &out[len(out)-1]
					c.hash = sp.hash(&c.s)
					counts[id-lo]++
				})
				outs[w] = out
			}(w, lo+w*chunk, min(lo+(w+1)*chunk, hi))
		}
		wg.Wait()
		flat = flat[:0]
		for w := range outs {
			if errs[w] != nil {
				return errs[w]
			}
			flat = append(flat, outs[w]...)
			clear(outs[w]) // drop the level's states from the reused buffer
			outs[w] = outs[w][:0]
			byShard[w] = byShard[w][:0]
		}
		for seq := range flat {
			w := flat[seq].hash % uint64(shards)
			byShard[w] = append(byShard[w], int32(seq))
		}

		for w := range byShard {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				var pend map[uint64][]int32 // hash -> seqs of the level's new states
			next:
				for _, seq := range byShard[w] {
					c := &flat[seq]
					c.node, c.dup = -1, -1
					for _, id := range seen[w][c.hash] {
						if sp.holds(w, id, &c.s) {
							c.node = id
							continue next
						}
					}
					for _, ps := range pend[c.hash] {
						if sp.same(&flat[ps].s, &c.s) {
							c.dup = ps
							continue next
						}
					}
					if pend == nil {
						pend = make(map[uint64][]int32)
					}
					pend[c.hash] = append(pend[c.hash], seq)
				}
			}(w)
		}
		wg.Wait()

		assigned = slices.Grow(assigned[:0], len(flat))[:len(flat)]
		n, seq := hi, 0 // new ids are dense from hi
		for i, cnt := range counts {
			for ; cnt > 0; cnt-- {
				c := &flat[seq]
				id := c.node
				if id < 0 && c.dup >= 0 {
					id = assigned[c.dup]
				}
				nid, stop := sp.commit(lo+i, &c.s, id)
				if stop {
					return nil
				}
				if id < 0 && nid >= 0 {
					own := seen[c.hash%uint64(shards)]
					own[c.hash] = append(own[c.hash], nid)
					n++
				}
				assigned[seq] = nid
				seq++
			}
		}
		clear(flat)
		lo, hi = hi, n
	}
	return nil
}
