package reach

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"repro/internal/petri"
)

// TimeAdvance labels edges of the timed graph that advance the clock to
// the next event (completing any firings that become due) rather than
// starting a transition.
const TimeAdvance petri.TransID = -1

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

// Ripe reports whether some transition may start firing immediately.
func (n *TimedNode) Ripe() bool {
	for _, e := range n.Enab {
		if e.Left == 0 {
			return true
		}
	}
	return false
}

// TimedGraph is the timed reachability graph of a net whose delays are
// all constant.
type TimedGraph struct {
	Net       *petri.Net
	Nodes     []*TimedNode
	Truncated bool
	// Stats counts the work of the build that made the graph.
	Stats BuildStats
}

// constDelay extracts a constant delay, rejecting distributions.
func constDelay(d petri.Delay, kind, trans string) (petri.Time, error) {
	v, ok := constOf(d)
	if !ok {
		return 0, fmt.Errorf("reach: %s time of %q is not constant; the timed graph requires deterministic delays", kind, trans)
	}
	return v, nil
}

// timedValidate rejects nets the timed construction cannot handle:
// interpreted nets and non-constant delays.
func timedValidate(net *petri.Net) error {
	if net.Interpreted() {
		return fmt.Errorf("reach: net %q is interpreted; the timed graph requires a plain net", net.Name)
	}
	for i := range net.Trans {
		if _, err := constDelay(net.Trans[i].Firing, "firing", net.Trans[i].Name); err != nil {
			return err
		}
		if _, err := constDelay(net.Trans[i].Enabling, "enabling", net.Trans[i].Name); err != nil {
			return err
		}
	}
	return nil
}

// timedRoot builds and interns node 0.
func timedRoot(net *petri.Net) (*TimedNode, error) {
	root := &TimedNode{Marking: net.InitialMarking()}
	if err := refreshEnab(net, root, nil); err != nil {
		return nil, err
	}
	return root, nil
}

// BuildTimed constructs the timed reachability graph. The construction
// follows the simulator's semantics exactly, but branches over every
// ripe transition where the simulator draws one at random; firing
// frequencies are therefore irrelevant here (except that frequency-0
// transitions never fire). Nets with non-constant delays, predicates or
// actions are rejected.
//
// Like Build, the search is the sharded frontier of explore over
// opt.Shards goroutines, so the graph is bit-identical to a serial FIFO
// construction for any shard count — including after truncation: past
// MaxStates no state is added, but the drain continues and later
// levels still attach edges between committed states. ctx is checked
// at every window barrier.
func BuildTimed(ctx context.Context, net *petri.Net, opt Options) (*TimedGraph, error) {
	sp, err := newTimedSpace(net, opt)
	if err != nil {
		return nil, err
	}
	if err := explore[timedSucc](ctx, sp, sp.root, opt.shardCount(), &sp.g.Stats); err != nil {
		return nil, err
	}
	return sp.g, nil
}

// timedSpace is the timed state space: whole *TimedNode states, deduped
// by hashTimed and sameState; commit drops states past MaxStates but
// never stops the drain.
type timedSpace struct {
	g    *TimedGraph
	max  int
	root timedSucc
}

// newTimedSpace validates net and commits the initial state as node 0.
func newTimedSpace(net *petri.Net, opt Options) (*timedSpace, error) {
	opt.defaults()
	if err := timedValidate(net); err != nil {
		return nil, err
	}
	root, err := timedRoot(net)
	if err != nil {
		return nil, err
	}
	g := &TimedGraph{Net: net, Nodes: []*TimedNode{root}}
	return &timedSpace{g: g, max: opt.MaxStates, root: timedSucc{node: root}}, nil
}

func (s *timedSpace) expand(_, lo, hi int, succ func(int, timedSucc)) error {
	for id := lo; id < hi; id++ {
		succs, err := timedSuccessors(s.g.Net, s.g.Nodes[id])
		if err != nil {
			return err
		}
		for _, c := range succs {
			succ(id, c)
		}
	}
	return nil
}

func (s *timedSpace) hash(c *timedSucc) uint64 { return hashTimed(c.node) }

func (s *timedSpace) holds(_ int, id int32, c *timedSucc) bool {
	return sameState(s.g.Nodes[id], c.node)
}

func (s *timedSpace) same(a, b *timedSucc) bool { return sameState(a.node, b.node) }

func (s *timedSpace) open(int, int, []int32, int) {}

func (s *timedSpace) commit(src int, c *timedSucc, id int32) (int32, bool) {
	g := s.g
	if id < 0 {
		if len(g.Nodes) >= s.max {
			g.Truncated = true
			g.Nodes[src].cut = true
			return -1, false
		}
		id = int32(len(g.Nodes))
		c.node.ID = int(id)
		g.Nodes = append(g.Nodes, c.node)
	}
	g.Nodes[src].Out = append(g.Nodes[src].Out, TimedEdge{Trans: c.label, Delta: c.delta, To: int(id)})
	return id, false
}

// hashTimed is the dedup hash of a timed state: hashMarking extended
// over the pending and enabling timers (the pending count delimits the
// two lists).
func hashTimed(n *TimedNode) uint64 {
	h := fnvVarint(hashMarking(n.Marking), uint64(len(n.Pending)))
	for _, r := range n.Pending {
		h = fnvVarint(fnvVarint(h, uint64(r.Trans)), uint64(r.Left))
	}
	for _, r := range n.Enab {
		h = fnvVarint(fnvVarint(h, uint64(r.Trans)), uint64(r.Left))
	}
	return h
}

// sameState reports whether two timed nodes are the same state: equal
// markings and equal pending and enabling timer lists.
func sameState(a, b *TimedNode) bool {
	return a.Marking.Equal(b.Marking) && slices.Equal(a.Pending, b.Pending) && slices.Equal(a.Enab, b.Enab)
}

// timedSucc is one timed successor and its edge label. delta rides
// here, not in the frontier's cand, so untimed candidates stay small.
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

func constOf(d petri.Delay) (petri.Time, bool) {
	if d == nil {
		return 0, true
	}
	return d.Const()
}

// Deadlocked reports whether node id is a deadlock: it has no
// successor, and truncation dropped none.
func (g *TimedGraph) Deadlocked(id int) bool {
	n := g.Nodes[id]
	return len(n.Out) == 0 && !n.cut
}

// Deadlocks returns the deadlocked nodes (see Deadlocked).
func (g *TimedGraph) Deadlocks() []int {
	var out []int
	for id := range g.Nodes {
		if g.Deadlocked(id) {
			out = append(out, id)
		}
	}
	return out
}

// MaxTokens returns the largest token count place reaches in the timed
// graph (the timed bound can be much tighter than the untimed one,
// which is the point of timed analysis).
func (g *TimedGraph) MaxTokens(place string) (int, error) {
	id, ok := g.Net.PlaceID(place)
	if !ok {
		return 0, fmt.Errorf("reach: unknown place %q", place)
	}
	max := 0
	for _, n := range g.Nodes {
		if n.Marking[id] > max {
			max = n.Marking[id]
		}
	}
	return max, nil
}
