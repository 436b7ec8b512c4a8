package analytic

import (
	"cmp"
	"container/heap"
	"context"
	"fmt"
	"slices"

	"repro/internal/petri"
	"repro/internal/reach"
)

// entry is one sparse transition: weight p towards state to.
type entry struct {
	to int32
	p  float64
}

// embeddedChain returns the embedded jump chain of g as sparse rows —
// row i holds the transition probabilities out of state i, sorted by
// target with duplicate targets merged — and each state's sojourn
// time: the clock advance of a time-advance state, zero at a conflict
// state. At a conflict state the simulator picks among the ripe
// transitions with probability proportional to frequency; the timed
// graph has one start edge per ripe transition.
func embeddedChain(net *petri.Net, g *reach.TimedGraph) ([][]entry, []float64, error) {
	n := len(g.Nodes)
	edges := 0
	for _, node := range g.Nodes {
		edges += len(node.Out)
	}
	flat := make([]entry, 0, edges)
	rows := make([][]entry, n)
	sojourn := make([]float64, n)
	for i, node := range g.Nodes {
		start := len(flat)
		if len(node.Out) == 1 && node.Out[0].Trans == reach.TimeAdvance {
			sojourn[i] = float64(node.Out[0].Delta)
			flat = append(flat, entry{to: int32(node.Out[0].To), p: 1})
		} else {
			total := 0.0
			for _, e := range node.Out {
				total += net.Trans[e.Trans].EffFreq()
			}
			if total <= 0 {
				return nil, nil, fmt.Errorf("analytic: state %d has no weighted successors", i)
			}
			for _, e := range node.Out {
				flat = append(flat, entry{to: int32(e.To), p: net.Trans[e.Trans].EffFreq() / total})
			}
			flat = flat[:start+len(mergeTargets(flat[start:]))]
		}
		rows[i] = flat[start:len(flat):len(flat)]
	}
	return rows, sojourn, nil
}

// mergeTargets sorts row by target in place and sums the weights of
// equal targets in their original order, returning the merged prefix.
func mergeTargets(row []entry) []entry {
	slices.SortStableFunc(row, func(a, b entry) int { return cmp.Compare(a.to, b.to) })
	out := row[:0]
	for _, e := range row {
		if len(out) > 0 && out[len(out)-1].to == e.to {
			out[len(out)-1].p += e.p
			continue
		}
		out = append(out, e)
	}
	return out
}

// closedClasses finds the closed communicating classes reachable from
// state 0 — the strongly connected components no edge leaves, by an
// iterative Tarjan search. Classes are ordered by lowest member and
// each is sorted by state id; classOf maps a state to its class, or to
// -1 for a transient (or unreached) state.
func closedClasses(rows [][]entry) (classes [][]int32, classOf []int32) {
	n := len(rows)
	index := make([]int32, n) // discovery order, -1 before the visit
	low := make([]int32, n)
	comp := make([]int32, n) // component id, -1 while on the Tarjan stack
	for i := range index {
		index[i], comp[i] = -1, -1
	}
	type frame struct {
		v    int32
		next int // next row entry of v to follow
	}
	var (
		stack, count int32
		onStack      []int32
		call         []frame
	)
	visit := func(v int32) {
		index[v], low[v] = count, count
		count++
		onStack = append(onStack, v)
		call = append(call, frame{v: v})
	}
	visit(0)
	for len(call) > 0 {
		f := &call[len(call)-1]
		v := f.v
		if f.next < len(rows[v]) {
			w := rows[v][f.next].to
			f.next++
			if index[w] < 0 {
				visit(w)
			} else if comp[w] < 0 {
				low[v] = min(low[v], index[w])
			}
			continue
		}
		call = call[:len(call)-1]
		if len(call) > 0 {
			u := call[len(call)-1].v
			low[u] = min(low[u], low[v])
		}
		if low[v] == index[v] {
			for {
				w := onStack[len(onStack)-1]
				onStack = onStack[:len(onStack)-1]
				comp[w] = stack
				if w == v {
					break
				}
			}
			stack++
		}
	}
	open := make([]bool, stack)
	for v, row := range rows {
		if index[v] < 0 {
			continue
		}
		for _, e := range row {
			if comp[e.to] != comp[v] {
				open[comp[v]] = true
				break
			}
		}
	}
	classIdx := make([]int32, stack) // component -> class, -1 for open ones
	for c := range classIdx {
		classIdx[c] = -1
	}
	classOf = make([]int32, n)
	for v := range rows {
		classOf[v] = -1
		if index[v] < 0 || open[comp[v]] {
			continue
		}
		c := classIdx[comp[v]]
		if c < 0 {
			c = int32(len(classes))
			classIdx[comp[v]] = c
			classes = append(classes, nil)
		}
		classes[c] = append(classes[c], int32(v))
		classOf[v] = c
	}
	return classes, classOf
}

// stationary returns the long-run average distribution of the chain
// started in state 0: zero on transient states and, on each closed
// class, the class's stationary distribution weighted by the
// probability of absorption into it. Every sum runs in a fixed order,
// so the result is bit-identical from run to run. ctx is checked every
// 1024 state eliminations.
func stationary(ctx context.Context, rows [][]entry) ([]float64, error) {
	classes, classOf := closedClasses(rows)
	s := &solver{ctx: ctx, local: make([]int32, len(rows))}
	weights := []float64{1}
	if len(classes) > 1 {
		var err error
		if weights, err = s.absorption(rows, classes, classOf); err != nil {
			return nil, err
		}
	}
	pi := make([]float64, len(rows))
	for c, class := range classes {
		local, err := s.solveClass(rows, class)
		if err != nil {
			return nil, err
		}
		for k, v := range class {
			pi[v] = weights[c] * local[k]
		}
	}
	return pi, nil
}

// solver carries what the reductions of one chain share: the context,
// the elimination count it is checked on, and a global-to-local state
// index.
type solver struct {
	ctx   context.Context
	elims int
	local []int32
}

// solveClass returns the stationary distribution of the closed class
// (its members in class order) by GTH state reduction down to one
// state, followed by back-substitution.
func (s *solver) solveClass(rows [][]entry, class []int32) ([]float64, error) {
	for k, v := range class {
		s.local[v] = int32(k)
	}
	// Members are sorted, so the local renumbering keeps rows sorted.
	sub := make([][]entry, len(class))
	for k, v := range class {
		sub[k] = make([]entry, len(rows[v]))
		for x, e := range rows[v] {
			sub[k][x] = entry{to: s.local[e.to], p: e.p}
		}
	}
	red := newReduction(sub)
	if err := s.reduce(red, 0, len(class), 1); err != nil {
		return nil, err
	}
	pi := make([]float64, len(class))
	pi[slices.Index(red.gone, false)] = 1 // the state left after the reduction
	for t := len(red.steps) - 1; t >= 0; t-- {
		st := &red.steps[t]
		sum := 0.0
		for _, e := range red.in[st.lo:st.hi] {
			sum += pi[e.to] * e.p
		}
		pi[st.k] = sum / st.s
	}
	total := 0.0
	for _, p := range pi {
		total += p
	}
	for k := range pi {
		pi[k] /= total
	}
	return pi, nil
}

// absorption returns, per closed class, the probability that the chain
// started in state 0 ends up in it. The transient states plus one
// absorbing state per class form a chain; reducing away every
// transient state but 0 leaves state 0's row proportional to the
// absorption probabilities. State 0 is transient whenever there is
// more than one closed class, and it is the lowest transient state, so
// it is local state 0.
func (s *solver) absorption(rows [][]entry, classes [][]int32, classOf []int32) ([]float64, error) {
	var transient []int32
	for v := range rows {
		if classOf[v] < 0 {
			s.local[v] = int32(len(transient))
			transient = append(transient, int32(v))
		}
	}
	m := int32(len(transient))
	sub := make([][]entry, int(m)+len(classes))
	for k, v := range transient {
		row := make([]entry, len(rows[v]))
		for x, e := range rows[v] {
			to := s.local[e.to]
			if c := classOf[e.to]; c >= 0 {
				to = m + c
			}
			row[x] = entry{to: to, p: e.p}
		}
		sub[k] = mergeTargets(row)
	}
	red := newReduction(sub)
	if err := s.reduce(red, 1, int(m), 0); err != nil {
		return nil, err
	}
	weights := make([]float64, len(classes))
	total := 0.0
	for _, e := range red.rows[0] {
		total += e.p
	}
	for _, e := range red.rows[0] {
		weights[e.to-m] = e.p / total
	}
	return weights, nil
}

// reduction is a sparse chain under GTH state reduction. rows holds
// the off-diagonal weights among the states not yet eliminated, sorted
// by target; cols[j] lists, sorted, the states whose row has an entry
// for j. steps records the eliminations in order, with the in-weights
// each state had when it went (slices of in), for back-substitution.
type reduction struct {
	rows    [][]entry
	cols    [][]int32
	gone    []bool
	steps   []step
	in      []entry
	scratch []entry
}

// step is one elimination: state k with pivot s, the total weight out
// of k to the other states still present, and in-weights in[lo:hi].
type step struct {
	k      int32
	s      float64
	lo, hi int
}

// newReduction takes ownership of rows (sorted, merged) and drops
// their self-loops, which no reduction step reads: the pivot excludes
// them, and so the state reduction needs no subtraction.
func newReduction(rows [][]entry) *reduction {
	r := &reduction{rows: rows, cols: make([][]int32, len(rows)), gone: make([]bool, len(rows))}
	for i, row := range rows {
		kept := row[:0]
		for _, e := range row {
			if e.to != int32(i) {
				kept = append(kept, e)
				r.cols[e.to] = append(r.cols[e.to], int32(i))
			}
		}
		rows[i] = kept
	}
	return r
}

// reduce eliminates local states lo..hi-1 of red until keep of them
// are left. The next state to go is the one with the fewest in-entries
// times out-entries, the lowest id among equals, so fill-in stays small
// and the order is fixed.
func (s *solver) reduce(red *reduction, lo, hi, keep int) error {
	score := func(k int32) int64 { return int64(len(red.cols[k])) * int64(len(red.rows[k])) }
	h := make(candHeap, 0, hi-lo)
	for k := int32(lo); k < int32(hi); k++ {
		h = append(h, cand{score(k), k})
	}
	heap.Init(&h)
	// Entries are never updated in place: a state re-enters the heap
	// when its degrees change, and stale entries are skipped.
	rescore := func(k int32) {
		if int(k) >= lo && int(k) < hi && !red.gone[k] {
			heap.Push(&h, cand{score(k), k})
		}
	}
	for left := hi - lo; left > keep; left-- {
		c := heap.Pop(&h).(cand)
		for red.gone[c.k] || c.score != score(c.k) {
			c = heap.Pop(&h).(cand)
		}
		if s.elims%1024 == 0 {
			if err := s.ctx.Err(); err != nil {
				return err
			}
		}
		s.elims++
		out := red.rows[c.k]
		if err := red.eliminate(c.k); err != nil {
			return err
		}
		st := red.steps[len(red.steps)-1]
		for _, e := range red.in[st.lo:st.hi] {
			rescore(e.to)
		}
		for _, e := range out {
			rescore(e.to)
		}
	}
	return nil
}

// eliminate removes state k: every path i -> k -> j becomes a direct
// weight p_ik p_kj / s_k on i -> j, where the pivot s_k is the total
// off-diagonal weight out of k — a sum of positive terms, never a
// difference. Self-loops created on the way are dropped.
func (r *reduction) eliminate(k int32) error {
	row := r.rows[k]
	s := 0.0
	for _, e := range row {
		s += e.p
	}
	if !(s > 0) {
		return fmt.Errorf("analytic: state reduction met a zero pivot at local state %d", k)
	}
	lo := len(r.in)
	for _, i := range r.cols[k] {
		ri := r.rows[i]
		at, _ := slices.BinarySearchFunc(ri, k, func(e entry, k int32) int { return cmp.Compare(e.to, k) })
		r.in = append(r.in, entry{to: i, p: ri[at].p})
		f := ri[at].p / s
		buf := r.scratch[:0]
		a, b := 0, 0
		for a < len(ri) || b < len(row) {
			switch {
			case b == len(row) || a < len(ri) && ri[a].to < row[b].to:
				if a != at {
					buf = append(buf, ri[a])
				}
				a++
			case a == len(ri) || row[b].to < ri[a].to:
				if j := row[b].to; j != i {
					buf = append(buf, entry{to: j, p: f * row[b].p})
					r.cols[j] = insertSorted(r.cols[j], i)
				}
				b++
			default:
				buf = append(buf, entry{to: ri[a].to, p: ri[a].p + f*row[b].p})
				a++
				b++
			}
		}
		r.rows[i] = append(ri[:0], buf...)
		r.scratch = buf
	}
	for _, e := range row {
		r.cols[e.to] = removeSorted(r.cols[e.to], k)
	}
	r.steps = append(r.steps, step{k: k, s: s, lo: lo, hi: len(r.in)})
	r.rows[k], r.cols[k] = nil, nil
	r.gone[k] = true
	return nil
}

// insertSorted adds v to the sorted set xs.
func insertSorted(xs []int32, v int32) []int32 {
	at, _ := slices.BinarySearch(xs, v)
	return slices.Insert(xs, at, v)
}

// removeSorted deletes v, which must be present, from the sorted set xs.
func removeSorted(xs []int32, v int32) []int32 {
	at, _ := slices.BinarySearch(xs, v)
	return slices.Delete(xs, at, at+1)
}

// cand is a heap entry: state k with its elimination score.
type cand struct {
	score int64
	k     int32
}

// candHeap orders candidates by score, then state id.
type candHeap []cand

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	return h[i].score < h[j].score || h[i].score == h[j].score && h[i].k < h[j].k
}
func (h candHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x any)   { *h = append(*h, x.(cand)) }
func (h *candHeap) Pop() any {
	old := *h
	c := old[len(old)-1]
	*h = old[:len(old)-1]
	return c
}
