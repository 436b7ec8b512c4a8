// Package reach implements the P-NUT reachability graph analyzer: the
// untimed and timed state-space constructions referenced in Section 4
// ([MR87] for untimed interactive state-space analysis, [RP84] for the
// timed reachability graphs), together with the branching-time
// temporal-logic checker used to verify "high-level specification of
// the expected behavior of a system".
//
// Where Tracertool (package tracer) tests a property on one simulation
// trace, the reachability analyzer proves it over all possible
// behaviours — the paper contrasts exactly these two modes.
//
// Build and BuildTimed are two state spaces on one sharded-frontier
// parallel BFS (explore, frontier.go) with a canonical numbering
// contract: node ids, edge order, states and truncation flags are
// bit-identical to a serial FIFO build for every shard count. The
// serial builds are test oracles (oracle_test.go). Untimed markings
// live in a compact delta-encoded StateStore (see store.go).
package reach

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/petri"
)

// State store names for Options.Store.
const (
	StoreMem   = "mem"
	StoreSpill = "spill"
)

// Options control graph construction.
type Options struct {
	// MaxStates caps the number of nodes explored (default 100 000).
	MaxStates int
	// BoundCap flags a place as potentially unbounded when its token
	// count exceeds this value (default 4096). Use Coverability for a
	// definite answer on nets without inhibitor arcs.
	BoundCap int
	// Shards is the number of exploration goroutines Build and
	// BuildTimed fan each frontier level across (0 or less =
	// GOMAXPROCS), clamped to 256. The graph — node numbering, edge
	// order, flags — is bit-identical for every value; shards only
	// change wall-clock time.
	Shards int
	// Store selects the marking store: StoreMem (the in-memory delta
	// store) or StoreSpill (framed blocks spilling to a temp file past
	// SpillBudget bytes). Empty resolves to StoreSpill when SpillBudget
	// or SpillDir is set, else StoreMem. Graphs are bit-identical
	// across stores; the store only changes where the bytes live.
	Store string
	// SpillBudget is the spill store's in-memory byte allowance for
	// sealed marking blocks (0 with the spill store = spill every
	// sealed block to disk).
	SpillBudget int64
	// SpillDir is the directory for spill temp files ("" = the system
	// temp dir).
	SpillDir string
}

func (o *Options) defaults() {
	if o.MaxStates <= 0 {
		o.MaxStates = 100_000
	}
	if o.BoundCap <= 0 {
		o.BoundCap = 4096
	}
}

// StoreName resolves the effective store selection: an explicit Store
// wins; otherwise setting SpillBudget or SpillDir implies the spill
// store, and the default is the in-memory store.
func (o Options) StoreName() string {
	if o.Store != "" {
		return o.Store
	}
	if o.SpillBudget > 0 || o.SpillDir != "" {
		return StoreSpill
	}
	return StoreMem
}

// CheckStore validates the store selection without building anything —
// the flag/spec layers call it so a typo fails at parse time, not
// mid-job.
func (o Options) CheckStore() error {
	switch o.StoreName() {
	case StoreMem, StoreSpill:
		return nil
	}
	return fmt.Errorf("reach: unknown state store %q (want %q or %q)", o.Store, StoreMem, StoreSpill)
}

// newStateStore builds the store Options select.
func newStateStore(opt Options, places int) (StateStore, error) {
	switch opt.StoreName() {
	case StoreMem:
		return NewMemStore(places), nil
	case StoreSpill:
		return NewSpillStore(places, opt.SpillBudget, opt.SpillDir), nil
	}
	return nil, opt.CheckStore()
}

// Edge is one graph transition.
type Edge struct {
	Trans petri.TransID
	To    int
}

// Node is one reachable marking: its id and outgoing edges. The
// marking itself lives in the graph's compact store — see MarkingOf
// and EachMarking.
type Node struct {
	ID  int
	Out []Edge
}

// Graph is a reachability graph. Node 0 is the initial marking. Close
// the graph when done: the spill store holds a temp file.
type Graph struct {
	Net   *petri.Net
	Nodes []Node
	store StateStore
	// Truncated is true if MaxStates was hit; construction stops at
	// that point, so analyses are lower bounds only.
	Truncated bool
	// CapExceeded names a place whose token count exceeded BoundCap
	// (empty if none): a strong hint of unboundedness.
	CapExceeded string
}

// MarkingOf decodes and returns the marking of one node. Each call
// allocates; prefer EachMarking for whole-graph scans.
func (g *Graph) MarkingOf(id int) petri.Marking { return g.store.At(id, nil) }

// EachMarking calls fn for every node in id order with a decode buffer
// that is reused between calls — fn must not retain m. Returning false
// stops the scan. A full scan decodes the store once, sequentially,
// which is how Bound, CheckInvariant and the CTL atom evaluation walk
// million-state graphs without per-node allocation.
func (g *Graph) EachMarking(fn func(id int, m petri.Marking) bool) {
	g.store.Span(0, g.store.Len(), fn)
}

// StoreBytes returns the encoded size of the marking store — the
// space the state space itself occupies (memory plus spill file),
// excluding adjacency.
func (g *Graph) StoreBytes() int { return g.store.Bytes() }

// SpilledBytes returns how many encoded marking bytes currently live
// on disk rather than in memory (0 for the in-memory store).
func (g *Graph) SpilledBytes() int64 {
	if s, ok := g.store.(*SpillStore); ok {
		return s.SpilledBytes()
	}
	return 0
}

// Close releases the marking store's resources (the spill store's temp
// file). The graph must not be used afterwards. Safe on a nil-store
// graph and idempotent.
func (g *Graph) Close() error {
	if g == nil || g.store == nil {
		return nil
	}
	return g.store.Close()
}

// Build constructs the untimed reachability graph: firing times and
// enabling times are ignored and every enabled transition can fire
// atomically. Interpreted nets (predicates or actions) are rejected —
// their state includes program variables, which the graph cannot
// enumerate faithfully.
//
// The search is the sharded frontier of explore over opt.Shards
// goroutines, so node ids, edge order, markings and flags are
// bit-identical to a serial FIFO build for any shard count.
// Construction stops the moment a new state would exceed MaxStates
// (Truncated is set and the graph holds exactly MaxStates nodes).
//
// ctx is checked at every level barrier (and the spill store's I/O
// errors surface there too); on cancellation the partial graph is
// discarded, its store closed, and ctx.Err() returned.
func Build(ctx context.Context, net *petri.Net, opt Options) (*Graph, error) {
	sp, err := newGraphSpace(net, opt)
	if err != nil {
		return nil, err
	}
	return sp.finish(explore[markingSucc](ctx, sp, sp.root, sp.shards))
}

// markingSucc is one untimed successor: the marking reached by firing
// t, encoded in the keyframe form (appendMarking) at bytes [off, end)
// of shard w's arena. It holds nothing else (16 bytes) so a frontier
// candidate stays at 32: every byte added here is paid once per
// successor of a level.
type markingSucc struct {
	w, t     int32
	off, end uint32
}

// shardBuf is one shard's reused buffers: the arena its successors of
// the current level are encoded into, and holds' decode and encode
// buffers.
type shardBuf struct {
	arena []byte
	fired petri.Marking // expand's successor marking
	at    petri.Marking // a committed marking, decoded by holds
	enc   []byte        // at, re-encoded by holds
}

// graphSpace is the untimed state space: markings live in the graph's
// StateStore, candidates in per-shard byte arenas, and edges in one
// array laid out in commit (= source) order. commit flags the bound cap
// and stops at the first truncation.
type graphSpace struct {
	g       *Graph
	opt     Options
	shards  int
	root    markingSucc
	bufs    []shardBuf
	cur     petri.Marking // commit's decode buffer
	rootCap string        // the place over BoundCap in node 0 ("" if none)
	edges   []Edge
	off     []int // off[i]: index in edges of node i's first edge
}

// newGraphSpace validates net, opens the store Options select and
// commits the initial marking as node 0. The root candidate sits in
// shard 0's arena until the first level resets it.
func newGraphSpace(net *petri.Net, opt Options) (*graphSpace, error) {
	opt.defaults()
	if net.Interpreted() {
		return nil, fmt.Errorf("reach: net %q is interpreted (predicates/actions); reachability requires a plain net", net.Name)
	}
	store, err := newStateStore(opt, net.NumPlaces())
	if err != nil {
		return nil, err
	}
	s := &graphSpace{g: &Graph{Net: net, store: store}, opt: opt, shards: opt.shardCount()}
	m0 := net.InitialMarking()
	s.bufs = make([]shardBuf, s.shards)
	for w := range s.bufs {
		s.bufs[w].fired = make(petri.Marking, len(m0))
	}
	s.bufs[0].arena = appendMarking(nil, m0)
	s.root = markingSucc{end: uint32(len(s.bufs[0].arena))}
	s.cur = make(petri.Marking, len(m0))
	s.rootCap = s.overCap(m0)
	store.Add(m0)
	return s, nil
}

// finish returns the graph with each node's Out a capped view into the
// one edge array, or closes it and returns the first of err and the
// store's sticky error.
func (s *graphSpace) finish(err error) (*Graph, error) {
	if err == nil {
		err = s.g.store.Err()
	}
	if err != nil {
		s.g.Close()
		return nil, err
	}
	n := s.g.store.Len()
	for len(s.off) <= n {
		s.off = append(s.off, len(s.edges))
	}
	s.g.Nodes = make([]Node, n)
	for i := range s.g.Nodes {
		s.g.Nodes[i].ID = i
		if a, b := s.off[i], s.off[i+1]; a < b {
			s.g.Nodes[i].Out = s.edges[a:b:b]
		}
	}
	return s.g, nil
}

// overCap returns the first place of m over BoundCap, or "".
func (s *graphSpace) overCap(m petri.Marking) string {
	for pi, cnt := range m {
		if cnt > s.opt.BoundCap {
			return s.g.Net.Places[pi].Name
		}
	}
	return ""
}

// encoded returns the arena bytes of candidate c.
func (s *graphSpace) encoded(c *markingSucc) []byte {
	return s.bufs[c.w].arena[c.off:c.end]
}

func (s *graphSpace) expand(w, lo, hi int, succ func(int, markingSucc)) error {
	if err := s.g.store.Err(); err != nil {
		return err
	}
	net := s.g.Net
	buf := &s.bufs[w]
	arena, next := buf.arena[:0], buf.fired
	var err error
	s.g.store.Span(lo, hi, func(id int, m petri.Marking) bool {
		for ti := range net.Trans {
			t := petri.TransID(ti)
			var ok bool
			if ok, err = net.Enabled(t, m, nil); err != nil {
				return false
			}
			if !ok {
				continue
			}
			copy(next, m)
			net.Consume(t, next)
			net.Produce(t, next)
			off := len(arena)
			arena = appendMarking(arena, next)
			succ(id, markingSucc{w: int32(w), t: int32(t), off: uint32(off), end: uint32(len(arena))})
		}
		return true
	})
	buf.arena = arena
	if err == nil && uint64(len(arena)) > math.MaxUint32 {
		err = fmt.Errorf("reach: one level's successors exceed %d encoded bytes in a shard", uint64(math.MaxUint32))
	}
	return err
}

func (s *graphSpace) hash(c *markingSucc) uint64 { return hashBytes(s.encoded(c)) }

func (s *graphSpace) holds(w int, id int32, c *markingSucc) bool {
	buf := &s.bufs[w]
	buf.at = s.g.store.At(int(id), buf.at)
	buf.enc = appendMarking(buf.enc[:0], buf.at)
	return bytes.Equal(buf.enc, s.encoded(c))
}

func (s *graphSpace) same(a, b *markingSucc) bool {
	return bytes.Equal(s.encoded(a), s.encoded(b))
}

// commit decodes only new states. A duplicate's marking was checked
// against BoundCap when its node was committed, except node 0's, whose
// over-cap place newGraphSpace precomputed; so CapExceeded names the
// same place the serial build does.
func (s *graphSpace) commit(src int, c *markingSucc, id int32) (int32, bool) {
	g := s.g
	if id < 0 {
		readMarking(s.encoded(c), s.cur)
		if g.CapExceeded == "" {
			g.CapExceeded = s.overCap(s.cur)
		}
		if g.store.Len() >= s.opt.MaxStates {
			g.Truncated = true
			return -1, true
		}
		id = int32(g.store.Add(s.cur))
	} else if id == 0 && g.CapExceeded == "" {
		g.CapExceeded = s.rootCap
	}
	for len(s.off) <= src {
		s.off = append(s.off, len(s.edges))
	}
	s.edges = append(s.edges, Edge{Trans: petri.TransID(c.t), To: int(id)})
	return id, false
}

// serialCheckEvery is how often (in processed nodes) the serial
// builders poll ctx and the store's sticky error.
const serialCheckEvery = 1024

// Deadlocks returns the IDs of nodes with no outgoing edges.
func (g *Graph) Deadlocks() []int {
	var out []int
	for i := range g.Nodes {
		if len(g.Nodes[i].Out) == 0 {
			out = append(out, g.Nodes[i].ID)
		}
	}
	return out
}

// Bound returns the maximum token count place reaches across the graph.
func (g *Graph) Bound(place string) (int, error) {
	id, ok := g.Net.PlaceID(place)
	if !ok {
		return 0, fmt.Errorf("reach: unknown place %q", place)
	}
	max := 0
	g.EachMarking(func(_ int, m petri.Marking) bool {
		if m[id] > max {
			max = m[id]
		}
		return true
	})
	return max, nil
}

// DeadTransitions returns the transitions that fire on no edge of the
// graph (L0-dead in the classical liveness hierarchy).
func (g *Graph) DeadTransitions() []string {
	fired := make([]bool, g.Net.NumTrans())
	for i := range g.Nodes {
		for _, e := range g.Nodes[i].Out {
			fired[e.Trans] = true
		}
	}
	var out []string
	for i, f := range fired {
		if !f {
			out = append(out, g.Net.Trans[i].Name)
		}
	}
	return out
}

// CheckInvariant verifies that the weighted token sum over the named
// places is the same in every reachable marking (a P-invariant, e.g.
// Bus_free + Bus_busy = 1). It returns the invariant value, or an error
// naming the first violating node.
func (g *Graph) CheckInvariant(weights map[string]int) (int, error) {
	ids := make(map[petri.PlaceID]int, len(weights))
	for name, w := range weights {
		id, ok := g.Net.PlaceID(name)
		if !ok {
			return 0, fmt.Errorf("reach: unknown place %q in invariant", name)
		}
		ids[id] = w
	}
	sum := func(m petri.Marking) int {
		s := 0
		for id, w := range ids {
			s += w * m[id]
		}
		return s
	}
	want, violated := 0, -1
	g.EachMarking(func(id int, m petri.Marking) bool {
		got := sum(m)
		if id == 0 {
			want = got
			return true
		}
		if got != want {
			violated = id
			return false
		}
		return true
	})
	if violated >= 0 {
		m := g.MarkingOf(violated)
		return 0, fmt.Errorf("reach: invariant violated at node %d (%s): %d != %d",
			violated, m.Format(g.Net), sum(m), want)
	}
	return want, nil
}

// Summary renders a human-readable analysis overview.
func (g *Graph) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "reachability graph of %q: %d states", g.Net.Name, len(g.Nodes))
	if g.Truncated {
		fmt.Fprintf(&b, " (truncated)")
	}
	fmt.Fprintf(&b, "\n")
	if g.CapExceeded != "" {
		fmt.Fprintf(&b, "  place %q exceeded the bound cap (likely unbounded)\n", g.CapExceeded)
	}
	dl := g.Deadlocks()
	fmt.Fprintf(&b, "  deadlocks: %d\n", len(dl))
	for i, id := range dl {
		if i == 5 {
			fmt.Fprintf(&b, "    ...\n")
			break
		}
		fmt.Fprintf(&b, "    #%d %s\n", id, g.MarkingOf(id).Format(g.Net))
	}
	if dead := g.DeadTransitions(); len(dead) > 0 {
		fmt.Fprintf(&b, "  dead transitions: %s\n", strings.Join(dead, ", "))
	}
	return b.String()
}

// --- coverability (Karp-Miller) ---------------------------------------

// Omega is the unbounded-place pseudo-count in coverability markings.
const Omega = int(^uint(0) >> 1) // max int

// CoverNode is a node of the Karp-Miller coverability tree, with Omega
// marking components for unbounded places.
type CoverNode struct {
	Marking petri.Marking
}

// Coverability runs the Karp-Miller construction and returns the set of
// places that are unbounded. Nets with inhibitor arcs are rejected: the
// construction is not sound for them (and reachability itself is
// undecidable). ctx is checked every serialCheckEvery expanded nodes.
func Coverability(ctx context.Context, net *petri.Net, opt Options) (unbounded []string, err error) {
	opt.defaults()
	if net.Interpreted() {
		return nil, fmt.Errorf("reach: interpreted nets are not supported by coverability")
	}
	for i := range net.Trans {
		if len(net.Trans[i].Inhib) > 0 {
			return nil, fmt.Errorf("reach: net %q has inhibitor arcs; Karp-Miller coverability is unsound for them", net.Name)
		}
	}
	type node struct {
		m      petri.Marking
		parent *node
	}
	enabled := func(t petri.TransID, m petri.Marking) bool {
		for _, a := range net.Trans[t].In {
			if m[a.Place] != Omega && m[a.Place] < a.Weight {
				return false
			}
		}
		return true
	}
	fire := func(t petri.TransID, m petri.Marking) petri.Marking {
		next := m.Clone()
		for _, a := range net.Trans[t].In {
			if next[a.Place] != Omega {
				next[a.Place] -= a.Weight
			}
		}
		for _, a := range net.Trans[t].Out {
			if next[a.Place] != Omega {
				next[a.Place] += a.Weight
			}
		}
		return next
	}
	covers := func(big, small petri.Marking) bool {
		for i := range big {
			if small[i] == Omega && big[i] != Omega {
				return false
			}
			if big[i] != Omega && big[i] < small[i] {
				return false
			}
		}
		return true
	}
	isOmega := make([]bool, net.NumPlaces())
	seen := make(map[string]bool)
	root := &node{m: net.InitialMarking()}
	work := []*node{root}
	seen[root.m.Key()] = true
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	count := 0
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		count++
		if count > opt.MaxStates {
			return nil, fmt.Errorf("reach: coverability exceeded %d states", opt.MaxStates)
		}
		if count%serialCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for ti := range net.Trans {
			t := petri.TransID(ti)
			if !enabled(t, n.m) {
				continue
			}
			next := fire(t, n.m)
			// Accelerate: if an ancestor is strictly covered, pump the
			// strictly larger places to Omega.
			for a := n; a != nil; a = a.parent {
				if covers(next, a.m) && !next.Equal(a.m) {
					for i := range next {
						if a.m[i] != Omega && next[i] != Omega && next[i] > a.m[i] {
							next[i] = Omega
							isOmega[i] = true
						}
					}
				}
			}
			key := next.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			work = append(work, &node{m: next, parent: n})
		}
	}
	for i, u := range isOmega {
		if u {
			unbounded = append(unbounded, net.Places[i].Name)
		}
	}
	sort.Strings(unbounded)
	return unbounded, nil
}
