package reach

import (
	"context"
	"strings"
	"testing"

	"repro/internal/petri"
)

// mutexNet: two processes competing for one lock.
func mutexNet(t *testing.T) *petri.Net {
	t.Helper()
	b := petri.NewBuilder("mutex")
	b.Place("lock", 1)
	b.Place("idle_a", 1)
	b.Place("crit_a", 0)
	b.Place("idle_b", 1)
	b.Place("crit_b", 0)
	b.Trans("enter_a").In("idle_a").In("lock").Out("crit_a")
	b.Trans("exit_a").In("crit_a").Out("idle_a").Out("lock")
	b.Trans("enter_b").In("idle_b").In("lock").Out("crit_b")
	b.Trans("exit_b").In("crit_b").Out("idle_b").Out("lock")
	return b.MustBuild()
}

func TestBuildMutexGraph(t *testing.T) {
	g, err := Build(context.Background(), mutexNet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// States: free, A critical, B critical.
	if len(g.Nodes) != 3 {
		t.Fatalf("states = %d, want 3", len(g.Nodes))
	}
	if g.Truncated || g.CapExceeded != "" {
		t.Errorf("unexpected flags: %+v", g)
	}
	if dl := g.Deadlocks(); len(dl) != 0 {
		t.Errorf("deadlocks: %v", dl)
	}
	if dead := g.DeadTransitions(); len(dead) != 0 {
		t.Errorf("dead transitions: %v", dead)
	}
}

func TestMutualExclusionViaInvariantAndCTL(t *testing.T) {
	g, err := Build(context.Background(), mutexNet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// P-invariant: lock + crit_a + crit_b == 1.
	v, err := g.CheckInvariant(map[string]int{"lock": 1, "crit_a": 1, "crit_b": 1})
	if err != nil || v != 1 {
		t.Errorf("invariant: %d, %v", v, err)
	}
	// Never both critical.
	if !Holds(g, MustParseFormula("AG({crit_a + crit_b <= 1})")) {
		t.Error("mutual exclusion violated")
	}
	// Each process can reach its critical section.
	if !Holds(g, MustParseFormula("EF({crit_a == 1}) && EF({crit_b == 1})")) {
		t.Error("critical sections unreachable")
	}
	// From anywhere, A can eventually get in (EF under AG).
	if !Holds(g, MustParseFormula("AG(EF({crit_a == 1}))")) {
		t.Error("A can be locked out permanently")
	}
	// But it is not inevitable (B may hog forever): AF must fail.
	if Holds(g, AF(MustAtom("crit_a == 1"))) {
		t.Error("AF(crit_a) should not hold")
	}
}

func TestInvariantViolationReported(t *testing.T) {
	g, err := Build(context.Background(), mutexNet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.CheckInvariant(map[string]int{"lock": 1}); err == nil {
		t.Error("bogus invariant accepted")
	}
	if _, err := g.CheckInvariant(map[string]int{"nosuch": 1}); err == nil {
		t.Error("unknown place accepted")
	}
}

func TestDeadlockDetection(t *testing.T) {
	b := petri.NewBuilder("dead")
	b.Place("a", 1)
	b.Place("b", 0)
	b.Trans("t").In("a").Out("b")
	g, err := Build(context.Background(), b.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	dl := g.Deadlocks()
	if len(dl) != 1 {
		t.Fatalf("deadlocks: %v", dl)
	}
	if !Holds(g, EF(Deadlock())) {
		t.Error("EF(deadlock) should hold")
	}
	if !Holds(g, AF(Deadlock())) {
		t.Error("AF(deadlock) should hold (single path)")
	}
	if !strings.Contains(g.Summary(), "deadlocks: 1") {
		t.Errorf("summary: %s", g.Summary())
	}
}

func TestInterpretedRejected(t *testing.T) {
	b := petri.NewBuilder("interp")
	b.Place("p", 1)
	b.Var("x", 0)
	b.Trans("t").In("p").Out("p").Pred("x == 0")
	net := b.MustBuild()
	if _, err := Build(context.Background(), net, Options{}); err == nil {
		t.Error("interpreted net accepted by Build")
	}
	if _, err := BuildTimed(context.Background(), net, Options{}); err == nil {
		t.Error("interpreted net accepted by BuildTimed")
	}
	if _, err := Coverability(context.Background(), net, Options{}); err == nil {
		t.Error("interpreted net accepted by Coverability")
	}
}

func TestTruncation(t *testing.T) {
	// An unbounded producer: each firing adds a token.
	b := petri.NewBuilder("unbounded")
	b.Place("src", 1)
	b.Place("sink", 0)
	b.Trans("make").In("src").Out("src").Out("sink")
	net := b.MustBuild()
	g, err := Build(context.Background(), net, Options{MaxStates: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !g.Truncated {
		t.Error("graph should be truncated")
	}
	if len(g.Nodes) != 50 {
		t.Errorf("nodes = %d", len(g.Nodes))
	}
	// With a small BoundCap the growing place is flagged.
	g2, err := Build(context.Background(), net, Options{MaxStates: 100, BoundCap: 10})
	if err != nil {
		t.Fatal(err)
	}
	if g2.CapExceeded != "sink" {
		t.Errorf("CapExceeded = %q, want sink", g2.CapExceeded)
	}
}

// TestTruncatedGraphReportsNoFalseDeadlocks is the regression test for
// truncation reporting unexpanded nodes as deadlocks: unboundedBranchNet
// never deadlocks, so a truncated graph of it must report none, in
// Deadlocks, in the CTL atom and in Summary, for every shard count and
// for the timed graph too. A deadlock expanded before the cap still
// counts.
func TestTruncatedGraphReportsNoFalseDeadlocks(t *testing.T) {
	ctx := context.Background()
	for _, shards := range []int{1, 3} {
		g, err := Build(ctx, unboundedBranchNet(), Options{MaxStates: 500, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if !g.Truncated {
			t.Fatal("graph should be truncated")
		}
		if dl := g.Deadlocks(); len(dl) != 0 {
			t.Errorf("shards=%d: %d deadlocks reported, first #%d", shards, len(dl), dl[0])
		}
		if !Holds(g, AG(Not(Deadlock()))) {
			t.Errorf("shards=%d: AG(!deadlock) fails on a truncated deadlock-free net", shards)
		}
		if !strings.Contains(g.Summary(), "deadlocks: 0") {
			t.Errorf("shards=%d: summary: %s", shards, g.Summary())
		}
	}

	b := petri.NewBuilder("timed_unbounded")
	b.Place("src", 1)
	b.Place("a", 0)
	b.Trans("grow").In("src").Out("src").Out("a").FiringConst(1)
	tg, err := BuildTimed(ctx, b.MustBuild(), Options{MaxStates: 20})
	if err != nil {
		t.Fatal(err)
	}
	if !tg.Truncated {
		t.Fatal("timed graph should be truncated")
	}
	if dl := tg.Deadlocks(); len(dl) != 0 {
		t.Errorf("timed: %d deadlocks reported, first #%d", len(dl), dl[0])
	}
	if !Holds(tg, AG(Not(Deadlock()))) {
		t.Error("timed: AG(!deadlock) fails on a truncated deadlock-free net")
	}

	// Every state with a token in go can stop for good: the deadlocks
	// expanded before the cap are real and must stay reported.
	b = petri.NewBuilder("stoppable")
	b.Place("go", 1)
	b.Place("a", 0)
	b.Trans("grow").In("go").Out("go").Out("a")
	b.Trans("stop").In("go")
	net := b.MustBuild()
	g, err := Build(ctx, net, Options{MaxStates: 41})
	if err != nil {
		t.Fatal(err)
	}
	dl := g.Deadlocks()
	if !g.Truncated || len(dl) == 0 {
		t.Fatalf("truncated %v, %d deadlocks; want a truncated graph with deadlocks", g.Truncated, len(dl))
	}
	goID := net.MustPlace("go")
	for _, id := range dl {
		if g.MarkingOf(id)[goID] != 0 {
			t.Errorf("node #%d reported as a deadlock with a token in go", id)
		}
	}
	if Holds(g, AG(Not(Deadlock()))) {
		t.Error("AG(!deadlock) holds despite expanded deadlocks")
	}
}

func TestCoverabilityFindsUnbounded(t *testing.T) {
	b := petri.NewBuilder("grow")
	b.Place("src", 1)
	b.Place("sink", 0)
	b.Trans("make").In("src").Out("src").Out("sink")
	unb, err := Coverability(context.Background(), b.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(unb) != 1 || unb[0] != "sink" {
		t.Errorf("unbounded = %v, want [sink]", unb)
	}
	// A bounded net reports nothing.
	unb2, err := Coverability(context.Background(), mutexNet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(unb2) != 0 {
		t.Errorf("mutex reported unbounded: %v", unb2)
	}
}

func TestCoverabilityRejectsInhibitors(t *testing.T) {
	b := petri.NewBuilder("inhib")
	b.Place("p", 1)
	b.Place("q", 0)
	b.Trans("t").In("p").Inhib("q").Out("q")
	if _, err := Coverability(context.Background(), b.MustBuild(), Options{}); err == nil {
		t.Error("inhibitor net accepted")
	}
}

func TestBound(t *testing.T) {
	g, err := Build(context.Background(), mutexNet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	bd, err := g.Bound("lock")
	if err != nil || bd != 1 {
		t.Errorf("Bound(lock) = %d, %v", bd, err)
	}
	if _, err := g.Bound("zzz"); err == nil {
		t.Error("unknown place accepted")
	}
}

func TestCTLOperatorsOnChain(t *testing.T) {
	// a -> b -> c (deadlock at c).
	b := petri.NewBuilder("chain")
	b.Place("a", 1)
	b.Place("b", 0)
	b.Place("c", 0)
	b.Trans("ab").In("a").Out("b")
	b.Trans("bc").In("b").Out("c")
	g, err := Build(context.Background(), b.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	atC := MustAtom("c == 1")
	atA := MustAtom("a == 1")
	notC := MustAtom("c == 0")
	cases := []struct {
		f    Formula
		want bool
	}{
		{EF(atC), true},
		{AF(atC), true},
		{AG(atC), false},
		{EG(notC), false}, // every maximal path ends at c
		{EX(MustAtom("b == 1")), true},
		{AX(MustAtom("b == 1")), true},
		{EU(notC, atC), true},
		{AU(notC, atC), true},
		{atA, true},
		{Not(atC), true},
		{And(atA, Not(atC)), true},
		{Or(atC, atA), true},
		{AG(EF(atC)), true},
	}
	for _, c := range cases {
		if got := Holds(g, c.f); got != c.want {
			t.Errorf("%s = %v, want %v", c.f, got, c.want)
		}
	}
}

func TestFormulaParser(t *testing.T) {
	good := []string{
		"AG({a == 1})",
		"EF({a + b == 2}) && !deadlock",
		"AU({a}, {b})",
		"EU({a}, AG({b}))",
		"inev({a})",
		"( {a} || {b} )",
		"AG(EF({a}))",
	}
	for _, src := range good {
		if _, err := ParseFormula(src); err != nil {
			t.Errorf("parse %q: %v", src, err)
		}
	}
	bad := []string{
		"",
		"AG({a)",
		"AG(a})",
		"EU({a})",
		"XX({a})",
		"AG({a}) trailing",
		"{a +}",
	}
	for _, src := range bad {
		if _, err := ParseFormula(src); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
	// inev parses to AF.
	f := MustParseFormula("inev({a})")
	if f.String() != "AF({a})" {
		t.Errorf("inev: %s", f)
	}
}

func TestTimedGraphBasics(t *testing.T) {
	// Two competing transitions with different enabling delays: fast (2)
	// always beats slow (5) in the timed semantics, so slow never fires.
	b := petri.NewBuilder("race")
	b.Place("p", 1)
	b.Place("won_fast", 0)
	b.Place("won_slow", 0)
	b.Trans("fast").In("p").Out("won_fast").EnablingConst(2)
	b.Trans("slow").In("p").Out("won_slow").EnablingConst(5)
	g, err := BuildTimed(context.Background(), b.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !Holds(g, EF(MustAtom("won_fast == 1"))) {
		t.Error("fast should win")
	}
	if Holds(g, EF(MustAtom("won_slow == 1"))) {
		t.Error("slow should never win in the timed graph")
	}
	// The untimed graph, by contrast, allows both.
	ug, err := Build(context.Background(), g.Net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !Holds(ug, EF(MustAtom("won_slow == 1"))) {
		t.Error("untimed graph should allow slow")
	}
}

func TestTimedGraphBranchesOnTies(t *testing.T) {
	// Equal delays: both outcomes reachable.
	b := petri.NewBuilder("tie")
	b.Place("p", 1)
	b.Place("a", 0)
	b.Place("bb", 0)
	b.Trans("ta").In("p").Out("a").EnablingConst(3)
	b.Trans("tb").In("p").Out("bb").EnablingConst(3)
	g, err := BuildTimed(context.Background(), b.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !Holds(g, EF(MustAtom("a == 1"))) || !Holds(g, EF(MustAtom("bb == 1"))) {
		t.Error("both tie outcomes should be reachable")
	}
}

func TestTimedGraphFiringTimes(t *testing.T) {
	// A firing time hides the token mid-flight; the timed graph contains
	// the in-limbo state.
	b := petri.NewBuilder("fly")
	b.Place("a", 1)
	b.Place("bb", 0)
	b.Trans("t").In("a").Out("bb").FiringConst(4)
	g, err := BuildTimed(context.Background(), b.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !Holds(g, EF(MustAtom("a == 0 && bb == 0"))) {
		t.Error("in-limbo state missing from timed graph")
	}
	if !Holds(g, AF(MustAtom("bb == 1"))) {
		t.Error("completion inevitable")
	}
	// Time-advance edges carry deltas.
	sawDelta := false
	for id, n := range g.Nodes {
		for _, e := range n.Out {
			if e.Trans == TimeAdvance && g.Advance(id) == 4 {
				sawDelta = true
			}
		}
	}
	if !sawDelta {
		t.Error("no time-advance edge found")
	}
}

func TestTimedRejectsRandomDelays(t *testing.T) {
	b := petri.NewBuilder("rand")
	b.Place("p", 1)
	b.Trans("t").In("p").Out("p").Enabling(petri.Uniform{Lo: 1, Hi: 3})
	if _, err := BuildTimed(context.Background(), b.MustBuild(), Options{}); err == nil {
		t.Error("random delay accepted by BuildTimed")
	}
}

func TestTimedEnablingTimerResetSemantics(t *testing.T) {
	// Mirror of the simulator test: thief steals the token at 2, returns
	// it at 4, so slow (delay 5) cannot complete before 9. In the timed
	// graph, won must not be reachable before the thief cycle completes:
	// simply check the graph agrees slow eventually wins (AF) since the
	// thief only fires once.
	b := petri.NewBuilder("reset")
	b.Place("shared", 1)
	b.Place("trigger", 1)
	b.Place("out", 0)
	b.Place("shared_back", 0)
	b.Trans("thief").In("trigger").In("shared").Out("shared_back").EnablingConst(2)
	b.Trans("return").In("shared_back").Out("shared").EnablingConst(2)
	b.Trans("slow").In("shared").Out("out").EnablingConst(5)
	g, err := BuildTimed(context.Background(), b.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !Holds(g, AF(MustAtom("out == 1"))) {
		t.Error("slow should inevitably fire after the steal-return cycle")
	}
	// The state where the thief holds the token is on the way.
	if !Holds(g, EF(MustAtom("shared_back == 1"))) {
		t.Error("thief state unreachable")
	}
}

func TestGraphSummaryMentionsDeadTransitions(t *testing.T) {
	b := petri.NewBuilder("deadt")
	b.Place("p", 1)
	b.Place("q", 0)
	b.Place("never", 0)
	b.Trans("ok").In("p").Out("q")
	b.Trans("starved").In("never").Out("q")
	g, err := Build(context.Background(), b.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.Summary(), "starved") {
		t.Errorf("summary should name dead transition:\n%s", g.Summary())
	}
}
