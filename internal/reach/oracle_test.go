package reach

// This file freezes the serial FIFO constructions Build and BuildTimed
// had before the sharded frontier (frontier.go) as test-only oracles.
// The production builders must reproduce them bit for bit — node ids,
// edge order, markings, timer vectors and flags — for every shard
// count; the property tests in parallel_test.go,
// timed_parallel_test.go, window_test.go, fuzz_test.go and
// spill_test.go compare against them. The oracles intern states
// through string keys (Marking.Key, timedKey), so they share nothing
// with the frontier's dedup, and the timed oracle keeps its own
// node-based state type and successor code (TimedNode,
// timedSuccessors), so it shares nothing with the row-based timed
// expand either.
//
// Do not "improve" this file; it is the numbering baseline.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/petri"
)

// BuildSerial is the plain serial BFS construction — the algorithm
// Build had before the sharded search, kept as the bit-identity oracle
// the parallel build is tested against. Markings are interned through
// Marking.Key() strings; nodes are processed with an index cursor (no
// queue-head reslicing, so the visited prefix can be collected) and
// construction stops the moment MaxStates is hit, exactly like Build.
// ctx is checked every serialCheckEvery nodes.
func BuildSerial(ctx context.Context, net *petri.Net, opt Options) (*Graph, error) {
	opt.defaults()
	if net.Interpreted() {
		return nil, fmt.Errorf("reach: net %q is interpreted (predicates/actions); reachability requires a plain net", net.Name)
	}
	g := &Graph{Net: net, store: newRowStore(net.NumPlaces(), false, opt.SpillBudget, opt.SpillDir)}
	g.store.Keep(math.MaxInt) // the oracle dedups through its own index, so any row may spill
	done := false
	defer func() {
		if !done {
			g.Close()
		}
	}()
	index := make(map[string]int)
	m0 := net.InitialMarking()
	g.Nodes = append(g.Nodes, Node{ID: 0})
	g.store.Add(appendMarking(nil, m0))
	index[m0.Key()] = 0
	var cur petri.Marking
	for id := 0; id < len(g.Nodes) && !g.Truncated; id++ {
		if id%serialCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := g.store.Err(); err != nil {
				return nil, err
			}
		}
		cur = g.store.At(id, cur)
		m := cur
		for ti := range net.Trans {
			t := petri.TransID(ti)
			ok, err := net.Enabled(t, m, nil)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			next := m.Clone()
			net.Consume(t, next)
			net.Produce(t, next)
			if g.CapExceeded == "" {
				for pi, c := range next {
					if c > opt.BoundCap {
						g.CapExceeded = net.Places[pi].Name
						break
					}
				}
			}
			key := next.Key()
			nid, seen := index[key]
			if !seen {
				if len(g.Nodes) >= opt.MaxStates {
					g.Truncated = true
					break
				}
				nid = len(g.Nodes)
				g.Nodes = append(g.Nodes, Node{ID: nid})
				g.store.Add(appendMarking(nil, next))
				index[key] = nid
			}
			g.Nodes[id].Out = append(g.Nodes[id].Out, Edge{Trans: int32(t), To: int32(nid)})
		}
	}
	if err := g.store.Err(); err != nil {
		return nil, err
	}
	done = true
	return g, nil
}

// BuildTimedSerial is the plain serial FIFO construction — the
// algorithm BuildTimed had before the sharded search, kept as the
// bit-identity oracle the parallel build is tested against. ctx is
// checked every serialCheckEvery processed nodes.
func BuildTimedSerial(ctx context.Context, net *petri.Net, opt Options) (*TimedGraph, error) {
	opt.defaults()
	if err := timedValidate(net); err != nil {
		return nil, err
	}
	g := &TimedGraph{Net: net}
	index := make(map[string]int)

	intern := func(n *TimedNode) (int, bool) {
		k := timedKey(n)
		if id, ok := index[k]; ok {
			return id, false
		}
		if len(g.Nodes) >= opt.MaxStates {
			g.Truncated = true
			return -1, false
		}
		n.ID = len(g.Nodes)
		index[k] = n.ID
		g.Nodes = append(g.Nodes, n)
		return n.ID, true
	}

	root, err := timedRoot(net)
	if err != nil {
		return nil, err
	}
	if _, ok := intern(root); !ok && len(g.Nodes) == 0 {
		return nil, fmt.Errorf("reach: could not intern initial state")
	}
	processed := 0
	for work := []int{0}; len(work) > 0; {
		if processed%serialCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		processed++
		id := work[0]
		work = work[1:]
		node := g.Nodes[id]
		succs, err := timedSuccessors(net, node)
		if err != nil {
			return nil, err
		}
		for _, s := range succs {
			nid, fresh := intern(s.node)
			if nid < 0 {
				node.cut = true
				continue
			}
			node.Out = append(node.Out, TimedEdge{Trans: s.label, Delta: s.delta, To: nid})
			if fresh {
				work = append(work, nid)
			}
		}
	}
	return g, nil
}

// timedKey is the injective string key the timed oracle interns states
// by: the marking key, then the pending and enabling timer lists.
func timedKey(n *TimedNode) string {
	var b strings.Builder
	b.WriteString(n.Marking.Key())
	b.WriteByte('|')
	for _, p := range n.Pending {
		fmt.Fprintf(&b, "%d:%d,", p.Trans, p.Left)
	}
	b.WriteByte('|')
	for _, e := range n.Enab {
		fmt.Fprintf(&b, "%d:%d,", e.Trans, e.Left)
	}
	return b.String()
}

// TimedEdge is one edge of a timed reachability graph: either the start
// of a firing (Trans >= 0, Delta == 0) or a time advance (Trans ==
// TimeAdvance, Delta > 0).
type TimedEdge struct {
	Trans petri.TransID
	Delta petri.Time
	To    int
}

// TimedNode is one state of the timed graph [RP84]: a marking plus the
// remaining firing times of in-progress transitions and the remaining
// enabling times of enabled transitions. Only relative times appear, so
// behaviourally identical states merge regardless of absolute clock.
type TimedNode struct {
	ID      int
	Marking petri.Marking
	// Pending holds (transition, remaining firing time), sorted.
	Pending []Remaining
	// Enab holds (transition, remaining enabling time) for enabled
	// transitions, sorted by transition.
	Enab []Remaining
	Out  []TimedEdge
	// cut is set when truncation dropped a successor of this state.
	cut bool
}

// Remaining pairs a transition with a remaining duration.
type Remaining struct {
	Trans petri.TransID
	Left  petri.Time
}

// TimedGraph is the timed reachability graph of a net whose delays are
// all constant.
type TimedGraph struct {
	Net       *petri.Net
	Nodes     []*TimedNode
	Truncated bool
}

// timedRoot builds and interns node 0.
func timedRoot(net *petri.Net) (*TimedNode, error) {
	root := &TimedNode{Marking: net.InitialMarking()}
	if err := refreshEnab(net, root, nil); err != nil {
		return nil, err
	}
	return root, nil
}

// timedSucc is one successor timedSuccessors returns and its edge
// label.
type timedSucc struct {
	node  *TimedNode
	label petri.TransID
	delta petri.Time
}

// refreshEnab recomputes the enabled set of n, keeping existing timers
// for transitions of prev that stay enabled and starting fresh timers
// for newly enabled ones. restart forces a fresh timer for one
// transition (the one that just fired).
func refreshEnab(net *petri.Net, n *TimedNode, prev []Remaining, restart ...petri.TransID) error {
	active := make(map[petri.TransID]int)
	for _, p := range n.Pending {
		active[p.Trans]++
	}
	old := make(map[petri.TransID]petri.Time, len(prev))
	for _, e := range prev {
		old[e.Trans] = e.Left
	}
	forceRestart := make(map[petri.TransID]bool, len(restart))
	for _, t := range restart {
		forceRestart[t] = true
	}
	n.Enab = n.Enab[:0]
	for ti := range net.Trans {
		t := petri.TransID(ti)
		tr := &net.Trans[ti]
		if tr.EffFreq() == 0 {
			continue
		}
		if tr.Servers > 0 && active[t] >= tr.Servers {
			continue
		}
		ok, err := net.Enabled(t, n.Marking, nil)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		left, had := old[t]
		if !had || forceRestart[t] {
			left, _ = constOf(tr.Enabling)
		}
		n.Enab = append(n.Enab, Remaining{Trans: t, Left: left})
	}
	sort.Slice(n.Enab, func(i, j int) bool { return n.Enab[i].Trans < n.Enab[j].Trans })
	return nil
}

// timedSuccessors expands one node.
func timedSuccessors(net *petri.Net, node *TimedNode) ([]timedSucc, error) {
	var succs []timedSucc
	// Start events: one successor per ripe transition.
	for _, e := range node.Enab {
		if e.Left != 0 {
			continue
		}
		t := e.Trans
		next := &TimedNode{
			Marking: node.Marking.Clone(),
			Pending: append([]Remaining(nil), node.Pending...),
		}
		net.Consume(t, next.Marking)
		f, _ := constOf(net.Trans[t].Firing)
		if f == 0 {
			net.Produce(t, next.Marking)
		} else {
			next.Pending = append(next.Pending, Remaining{Trans: t, Left: f})
			sortPending(next.Pending)
		}
		if err := refreshEnab(net, next, node.Enab, t); err != nil {
			return nil, err
		}
		succs = append(succs, timedSucc{node: next, label: t})
	}
	if len(succs) > 0 {
		return succs, nil
	}
	// No ripe transition: advance time to the next completion or
	// ripening.
	var delta petri.Time
	has := false
	for _, p := range node.Pending {
		if !has || p.Left < delta {
			delta, has = p.Left, true
		}
	}
	for _, e := range node.Enab {
		if e.Left > 0 && (!has || e.Left < delta) {
			delta, has = e.Left, true
		}
	}
	if !has {
		return nil, nil // deadlock
	}
	next := &TimedNode{Marking: node.Marking.Clone()}
	for _, p := range node.Pending {
		if p.Left-delta == 0 {
			net.Produce(p.Trans, next.Marking)
		} else {
			next.Pending = append(next.Pending, Remaining{Trans: p.Trans, Left: p.Left - delta})
		}
	}
	sortPending(next.Pending)
	aged := make([]Remaining, len(node.Enab))
	for i, e := range node.Enab {
		left := e.Left - delta
		if left < 0 {
			left = 0
		}
		aged[i] = Remaining{Trans: e.Trans, Left: left}
	}
	if err := refreshEnab(net, next, aged); err != nil {
		return nil, err
	}
	return []timedSucc{{node: next, label: TimeAdvance, delta: delta}}, nil
}

func sortPending(p []Remaining) {
	sort.Slice(p, func(i, j int) bool {
		if p[i].Left != p[j].Left {
			return p[i].Left < p[j].Left
		}
		return p[i].Trans < p[j].Trans
	})
}

// Deadlocked reports whether node id is a deadlock: it has no
// successor, and truncation dropped none.
func (g *TimedGraph) Deadlocked(id int) bool {
	n := g.Nodes[id]
	return len(n.Out) == 0 && !n.cut
}
