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
// serial builds are test oracles (oracle_test.go). Both return a Graph
// whose states live in its row store: a marking is one uvarint per
// place (see store.go), and a timed state is its marking's row with its
// timers appended (see timed.go). The build writes, hashes, compares
// and stores that one encoding.
package reach

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"repro/internal/petri"
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
	// BuildTimed fan each frontier window across (0 or less =
	// GOMAXPROCS), clamped to 256. The graph — node numbering, edge
	// order, flags — is bit-identical for every value; shards only
	// change wall-clock time.
	Shards int
	// SpillBudget, when positive, is the byte budget of the rows the
	// graph keeps in memory: past it, the oldest whole blocks of rows
	// spill to a temp file, so MaxStates can exceed RAM. The rows of
	// the newest level always stay in memory. 0 keeps every row in
	// memory. Graphs are bit-identical for every budget; it only
	// changes where the bytes live.
	SpillBudget int64
	// SpillDir is the directory for the spill temp file ("" = the
	// system temp dir).
	SpillDir string
}

// DefaultMaxStates is the state-space cap a zero Options.MaxStates
// resolves to.
const DefaultMaxStates = 100_000

func (o *Options) defaults() {
	if o.MaxStates <= 0 {
		o.MaxStates = DefaultMaxStates
	}
	if o.BoundCap <= 0 {
		o.BoundCap = 4096
	}
}

// Edge is one graph transition: the transition fired and the node it
// leads to. Both fit int32 — node ids are int32 throughout the
// frontier's dedup tables — so an edge is 8 bytes.
type Edge struct {
	Trans, To int32
}

// Node is one reachable state: its id and outgoing edges. The state
// itself lives in the graph's compact store — see MarkingOf,
// EachMarking and Advance.
type Node struct {
	ID  int
	Out []Edge
}

// Graph is a reachability graph, untimed (Build) or timed (BuildTimed).
// Node 0 is the initial state. In a timed graph an edge either starts
// its transition or, labelled TimeAdvance, advances the clock by
// Advance of its source. Close the graph when done: a spilling store
// holds a temp file.
type Graph struct {
	Net   *petri.Net
	Nodes []Node
	store *rowStore
	// Truncated is true if MaxStates was hit, so analyses are lower
	// bounds only. Build stops at that point; BuildTimed drops every
	// later new state but keeps attaching edges between committed ones.
	Truncated bool
	// CapExceeded names a place whose token count exceeded BoundCap
	// (empty if none): a strong hint of unboundedness.
	CapExceeded string
	// Stats counts the work of the build that made the graph.
	Stats BuildStats
	// timed is set on graphs BuildTimed made.
	timed bool
	// cut is, when Truncated, the bitset of the nodes the cap left not
	// fully expanded: in Build, the node it stopped in and every later
	// one; in BuildTimed, each node that lost a successor.
	cut []uint64
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
	g.store.Span(0, g.store.Len(), func(id int, m petri.Marking, _ []byte) bool { return fn(id, m) })
}

// StoreBytes returns the encoded size of the marking store — the
// space the state space itself occupies (memory plus spill file),
// excluding adjacency.
func (g *Graph) StoreBytes() int { return g.store.Bytes() }

// SpilledBytes returns how many encoded row bytes live on disk rather
// than in memory (0 without a spill budget).
func (g *Graph) SpilledBytes() int64 { return g.store.spilled }

// Err returns the first read or decode error the marking store hit
// since it was opened. A spilled row that cannot be read back yields a
// zeroed marking, a scan cut short or a zero Advance, so a caller that
// reads markings of a spilling graph after the build must check Err
// before it trusts a figure. It is always nil without a spill budget.
func (g *Graph) Err() error { return g.store.Err() }

// Close releases the marking store's resources (its spill temp
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
// ctx is checked at every window barrier (and the store's spill I/O
// errors surface there too); on cancellation the partial graph is
// discarded, its store closed, and ctx.Err() returned.
func Build(ctx context.Context, net *petri.Net, opt Options) (*Graph, error) {
	sp, err := newGraphSpace(net, opt)
	if err != nil {
		return nil, err
	}
	return sp.finish(explore[rowSucc](ctx, sp, sp.root, sp.shards, &sp.g.Stats))
}

// rowSucc is one successor: the state reached by the edge labelled t
// (a transition, or TimeAdvance), as a row at bytes [off, end) of shard
// w's arena. It holds nothing else (16 bytes) so a frontier candidate
// stays small: every byte added here is paid once per successor of a
// window.
type rowSucc struct {
	w, t     int32
	off, end uint32
}

// shardBuf is one shard's reused buffers: the arena its successors of
// the current window are written into, the candidate transitions of the
// state being expanded (a bitset), and holds' copy of a spilled row.
type shardBuf struct {
	arena []byte
	cand  []uint64
	row   []byte
}

// placeDelta is one place's net token change when a transition fires.
// A transition's list is in ascending place order.
type placeDelta struct {
	place, d int
}

// graphSpace is the untimed state space, and timedSpace's with another
// expand: states live in the graph's row store, candidates in per-shard
// byte arenas in the same form, and each window's edges in one block of
// the window's candidate count, since every candidate becomes at most
// one edge (windowEdges). The store keeps the newest level's rows in
// memory: most dedup hits on committed nodes repeat a state an earlier
// window of the same level committed, and holds compares those as
// views. commit flags the bound cap and truncates at MaxStates.
type graphSpace struct {
	g       *Graph
	opt     Options
	shards  int
	places  int
	deltas  []placeDelta // per transition: Out minus In, zeros dropped, ...
	deltaAt []int32      // ... at deltas[deltaAt[t]:deltaAt[t+1]]
	sources []uint64     // the transitions without input arcs, as a bitset
	masks   []uint64     // per place: the bitset of Affected, len(sources) words
	root    rowSucc
	bufs    []shardBuf
	cur     petri.Marking // commit's decode buffer
	rootCap string        // the place over BoundCap in node 0 ("" if none)
	windows []windowEdges
	edges   int   // edges committed so far
	err     error // set by commit when the edges outgrow int32
}

// windowEdges is one window's edge block: node lo+i's edges are the
// counts[i] edges after those of nodes lo..lo+i-1.
type windowEdges struct {
	lo     int
	counts []int32
	block  []Edge
}

// newGraphSpace validates net, opens its store and commits the initial
// marking as node 0.
func newGraphSpace(net *petri.Net, opt Options) (*graphSpace, error) {
	if net.Interpreted() {
		return nil, fmt.Errorf("reach: net %q is interpreted (predicates/actions); reachability requires a plain net", net.Name)
	}
	s := newSpace(net, opt, false)
	m0 := net.InitialMarking()
	s.start(appendMarking(nil, m0), m0)
	return s, nil
}

// newSpace opens the row store and sets up the tables and shard buffers
// of a space over net, untimed or timed, with no node committed.
func newSpace(net *petri.Net, opt Options, timed bool) *graphSpace {
	opt.defaults()
	places := net.NumPlaces()
	store := newRowStore(places, timed, opt.SpillBudget, opt.SpillDir)
	s := &graphSpace{g: &Graph{Net: net, store: store, timed: timed}, opt: opt, shards: opt.shardCount(), places: places}
	arcs := 0
	for t := range net.Trans {
		arcs += len(net.Trans[t].In) + len(net.Trans[t].Out)
	}
	s.deltas = make([]placeDelta, 0, arcs)
	s.deltaAt = make([]int32, 1, len(net.Trans)+1)
	s.cur = make(petri.Marking, places)
	for t := range net.Trans {
		change := s.cur // commit's decode buffer, free until the first commit
		clear(change)
		for _, a := range net.Trans[t].In {
			change[a.Place] -= a.Weight
		}
		for _, a := range net.Trans[t].Out {
			change[a.Place] += a.Weight
		}
		for p, d := range change {
			if d != 0 {
				s.deltas = append(s.deltas, placeDelta{place: p, d: d})
			}
		}
		s.deltaAt = append(s.deltaAt, int32(len(s.deltas)))
	}
	words := (len(net.Trans) + 63) / 64
	s.sources = make([]uint64, words)
	for t := range net.Trans {
		if len(net.Trans[t].In) == 0 {
			s.sources[t/64] |= 1 << (t % 64)
		}
	}
	s.masks = make([]uint64, places*words)
	for p := 0; p < places; p++ {
		for _, t := range net.Affected(petri.PlaceID(p)) {
			s.masks[p*words+int(t)/64] |= 1 << (t % 64)
		}
	}
	s.bufs = make([]shardBuf, s.shards)
	cands := make([]uint64, s.shards*words)
	for w := range s.bufs {
		s.bufs[w].cand = cands[w*words : (w+1)*words : (w+1)*words]
	}
	return s
}

// start commits root, the row of the initial state with marking m0, as
// node 0. The root candidate sits in shard 0's arena until the first
// window resets it.
func (s *graphSpace) start(root []byte, m0 petri.Marking) {
	s.bufs[0].arena = root
	s.root = rowSucc{end: uint32(len(root))}
	s.rootCap = s.overCap(m0)
	s.g.store.Add(root)
}

// finish returns the graph with each node's Out a capped view into its
// window's edge block, or closes it and returns the first of err, the
// edge overflow and the store's sticky error.
func (s *graphSpace) finish(err error) (*Graph, error) {
	if err == nil {
		err = s.err
	}
	if err == nil {
		err = s.g.store.Err()
	}
	if err != nil {
		s.g.Close()
		return nil, err
	}
	nodes := make([]Node, s.g.store.Len())
	for i := range nodes {
		nodes[i].ID = i
	}
	for _, l := range s.windows {
		out := l.block
		for i, n := range l.counts {
			if n > 0 {
				nodes[l.lo+i].Out, out = out[:n:n], out[n:]
			}
		}
	}
	s.g.Nodes = nodes
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
func (s *graphSpace) encoded(c *rowSucc) []byte {
	return s.bufs[c.w].arena[c.off:c.end]
}

// candidates sets cand to the transitions that may be enabled at m.
// Arc weights are at least 1, so a transition with an input arc is
// enabled only if one of its input places is marked: the candidates are
// the transitions m's marked places feed plus those without input arcs.
// Trying them in ascending id finds what a full scan would.
func (s *graphSpace) candidates(cand []uint64, m petri.Marking) {
	copy(cand, s.sources)
	for p, c := range m {
		if c > 0 {
			for i, mw := range s.masks[p*len(cand) : (p+1)*len(cand)] {
				cand[i] |= mw
			}
		}
	}
}

// expand writes each successor's row into shard w's arena, trying the
// candidate transitions of each state. When the parent row is
// stride-width (one byte per place) and every changed count stays below
// 128, the successor row is the parent row with only the changed bytes
// rewritten; otherwise every count is encoded.
func (s *graphSpace) expand(w, lo, hi int, succ func(int, rowSucc)) error {
	if err := s.g.store.Err(); err != nil {
		return err
	}
	net := s.g.Net
	buf := &s.bufs[w]
	arena, cand := buf.arena[:0], buf.cand
	var err error
	s.g.store.Span(lo, hi, func(id int, m petri.Marking, row []byte) bool {
		stride := len(row) == s.places
		s.candidates(cand, m)
		for i, word := range cand {
			for ; word != 0; word &= word - 1 {
				ti := i*64 + bits.TrailingZeros64(word)
				t := petri.TransID(ti)
				var ok bool
				if ok, err = net.Enabled(t, m, nil); err != nil {
					return false
				}
				if !ok {
					continue
				}
				off, patched := len(arena), false
				if stride {
					arena = append(reserve(arena, len(row)), row...)
					patched = s.patch(arena[off:], m, ti)
				}
				if !patched {
					arena = s.appendFired(arena[:off], m, ti)
				}
				succ(id, rowSucc{w: int32(w), t: int32(t), off: uint32(off), end: uint32(len(arena))})
			}
		}
		return true
	})
	buf.arena = arena
	if err == nil {
		err = arenaErr(arena)
	}
	return err
}

// arenaErr rejects a shard arena whose offsets outgrow a rowSucc's.
func arenaErr(arena []byte) error {
	if uint64(len(arena)) > math.MaxUint32 {
		return fmt.Errorf("reach: one window's successors exceed %d encoded bytes in a shard", uint64(math.MaxUint32))
	}
	return nil
}

// delta returns transition t's place changes.
func (s *graphSpace) delta(t int) []placeDelta {
	return s.deltas[s.deltaAt[t]:s.deltaAt[t+1]]
}

// patch turns r, a copy of the stride-width row of marking m, into the
// row of m after firing t by rewriting only the places t changes. It
// reports false when a changed count reaches 128 and so needs more than
// one byte.
func (s *graphSpace) patch(r []byte, m petri.Marking, t int) bool {
	for _, d := range s.delta(t) {
		v := m[d.place] + d.d
		if v >= 0x80 {
			return false
		}
		r[d.place] = byte(v)
	}
	return true
}

// appendFired appends the row of marking m after firing t, encoding
// every count; t's changes are in ascending place order.
func (s *graphSpace) appendFired(b []byte, m petri.Marking, t int) []byte {
	ds := s.delta(t)
	for p, c := range m {
		if len(ds) > 0 && ds[0].place == p {
			c += ds[0].d
			ds = ds[1:]
		}
		b = binary.AppendUvarint(b, uint64(c))
	}
	return b
}

func (s *graphSpace) hash(c *rowSucc) uint64 { return hashRow(s.encoded(c)) }

func (s *graphSpace) holds(w int, id int32, c *rowSucc) bool {
	return bytes.Equal(s.g.store.Row(int(id), &s.bufs[w].row), s.encoded(c))
}

func (s *graphSpace) same(a, b *rowSucc) bool {
	return bytes.Equal(s.encoded(a), s.encoded(b))
}

// open opens the window's edge block, which commit fills in order, and
// keeps the rows from first on, the newest level's, in memory.
func (s *graphSpace) open(lo, first int, counts []int32, total int) {
	s.g.store.Keep(first)
	s.windows = append(s.windows, windowEdges{lo: lo, counts: slices.Clone(counts), block: make([]Edge, 0, total)})
}

// commit stores a new state's candidate row verbatim. It decodes the
// row only to check it against BoundCap, and only when the row could
// exceed it: a stride-width row holds counts below 128 and so cannot
// pass a cap of 127 or more. A duplicate's marking was checked when its
// node was committed, except node 0's, whose over-cap place start
// precomputed; so CapExceeded names the same place the serial build
// does.
func (s *graphSpace) commit(src int, c *rowSucc, id int32) (int32, bool) {
	g := s.g
	if id < 0 {
		row := s.encoded(c)
		if g.CapExceeded == "" && (len(row) != s.places || s.opt.BoundCap < 0x7f) {
			readMarking(row, s.cur)
			g.CapExceeded = s.overCap(s.cur)
		}
		if g.store.Len() >= s.opt.MaxStates {
			return -1, s.truncate(src)
		}
		id = int32(g.store.Add(row))
	} else if id == 0 && g.CapExceeded == "" {
		g.CapExceeded = s.rootCap
	}
	if s.edges == math.MaxInt32 {
		s.err = fmt.Errorf("reach: more than %d edges", math.MaxInt32)
		return -1, true
	}
	s.edges++
	l := &s.windows[len(s.windows)-1]
	l.block = append(l.block, Edge{Trans: c.t, To: id})
	return id, false
}

// truncate drops a new successor of node src past MaxStates and
// reports whether the build stops. A timed build drains on, as the
// serial one does: src loses only this edge. An untimed build stops
// inside src's expansion: src keeps the edges committed so far, and the
// later nodes keep none.
func (s *graphSpace) truncate(src int) bool {
	g := s.g
	g.Truncated = true
	l := &s.windows[len(s.windows)-1]
	i := src - l.lo
	if g.cut == nil {
		g.cut = make([]uint64, (g.store.Len()+63)/64)
	}
	if g.timed {
		l.counts[i]--
		g.cut[src/64] |= 1 << (src % 64)
		return false
	}
	kept := len(l.block)
	for _, n := range l.counts[:i] {
		kept -= int(n)
	}
	l.counts[i] = int32(kept)
	clear(l.counts[i+1:])
	for id := src; id < g.store.Len(); id++ {
		g.cut[id/64] |= 1 << (id % 64)
	}
	return true
}

// serialCheckEvery is how often (in processed nodes) the serial
// builders poll ctx and the store's sticky error.
const serialCheckEvery = 1024

// Deadlocked reports whether node id is a deadlock: it has no
// outgoing edge, and truncation cut none from it.
func (g *Graph) Deadlocked(id int) bool {
	return len(g.Nodes[id].Out) == 0 && (g.cut == nil || g.cut[id/64]&(1<<(id%64)) == 0)
}

// Deadlocks returns the IDs of the deadlocked nodes (see Deadlocked).
func (g *Graph) Deadlocks() []int {
	var out []int
	for id := range g.Nodes {
		if g.Deadlocked(id) {
			out = append(out, id)
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
			if e.Trans != TimeAdvance {
				fired[e.Trans] = true
			}
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
