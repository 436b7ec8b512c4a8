package reach

// This file freezes the serial FIFO constructions Build and BuildTimed
// had before the sharded frontier (frontier.go) as test-only oracles.
// The production builders must reproduce them bit for bit — node ids,
// edge order, markings, timer vectors and flags — for every shard
// count; the property tests in parallel_test.go,
// timed_parallel_test.go and spill_test.go compare against them. The
// oracles intern states through string keys (Marking.Key, timedKey),
// so they share nothing with the frontier's hash-chain dedup.
//
// Do not "improve" this file; it is the numbering baseline.

import (
	"context"
	"fmt"
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
	store, err := newStateStore(opt, net.NumPlaces())
	if err != nil {
		return nil, err
	}
	g := &Graph{Net: net, store: store}
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
