package analytic

import (
	"context"
	"math"
	"testing"

	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// station: arrivals every 4 ticks, deterministic service 2 ticks.
// Utilization of the server is exactly 0.5, throughput exactly 0.25.
func stationNet(t *testing.T) *petri.Net {
	t.Helper()
	b := petri.NewBuilder("station")
	b.Place("idle", 1)
	b.Place("busy", 0)
	b.Place("queue", 0)
	b.Place("src", 1)
	b.Trans("arrive").In("src").Out("src").Out("queue").EnablingConst(4)
	b.Trans("begin").In("queue").In("idle").Out("busy")
	b.Trans("finish").In("busy").Out("idle").EnablingConst(2)
	return b.MustBuild()
}

func TestStationExact(t *testing.T) {
	r, err := Evaluate(context.Background(), stationNet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := r.Utilization("busy")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-0.5) > 1e-9 {
		t.Errorf("analytic utilization = %.12f, want exactly 0.5", u)
	}
	th, err := r.Throughput("finish")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(th-0.25) > 1e-9 {
		t.Errorf("analytic throughput = %.12f, want exactly 0.25", th)
	}
	p, err := r.ProbMarked("busy", 1)
	if err != nil || math.Abs(p-0.5) > 1e-9 {
		t.Errorf("ProbMarked = %.12f, %v", p, err)
	}
}

// probabilistic service: 1 tick with weight 3, 3 ticks with weight 1.
// The worst-case service (3) stays below the interarrival time (4), so
// the queue — and with it the timed state space — stays bounded. Every
// arrival is served: total throughput 0.25, split 3:1 across classes.
func TestProbabilisticBranching(t *testing.T) {
	net := probStationNet(t)

	r, err := Evaluate(context.Background(), net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Class split: 3:1.
	fast, _ := r.Throughput("finish_fast")
	slow, _ := r.Throughput("finish_slow")
	if math.Abs(fast/slow-3) > 1e-6 {
		t.Errorf("class split = %.6f, want 3", fast/slow)
	}
	if math.Abs(fast+slow-0.25) > 1e-9 {
		t.Errorf("total throughput = %.12f, want 0.25", fast+slow)
	}
	// Cross-validate against a long simulation.
	s := stats.New(trace.HeaderOf(net))
	if _, err := sim.Run(context.Background(), net, s, sim.Options{Horizon: 400_000, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	simFast, _ := s.Throughput("finish_fast")
	if math.Abs(simFast-fast) > 0.005 {
		t.Errorf("simulation %.5f vs analytic %.5f diverge", simFast, fast)
	}
	aBusy, _ := r.ProbMarked("busy_fast", 1)
	sBusy, _ := s.Utilization("busy_fast")
	if math.Abs(aBusy-sBusy) > 0.01 {
		t.Errorf("busy_fast: analytic %.5f vs simulated %.5f", aBusy, sBusy)
	}
}

func TestDeadlockRejected(t *testing.T) {
	b := petri.NewBuilder("dead")
	b.Place("a", 1)
	b.Place("b", 0)
	b.Trans("t").In("a").Out("b").EnablingConst(1)
	if _, err := Evaluate(context.Background(), b.MustBuild(), Options{}); err == nil {
		t.Error("deadlocking net accepted")
	}
}

func TestUntimedRejected(t *testing.T) {
	// A purely instantaneous cycle has zero mean sojourn.
	b := petri.NewBuilder("zeno")
	b.Place("a", 1)
	b.Place("b", 0)
	b.Trans("ab").In("a").Out("b")
	b.Trans("ba").In("b").Out("a")
	if _, err := Evaluate(context.Background(), b.MustBuild(), Options{}); err == nil {
		t.Error("untimed net accepted (zero sojourn)")
	}
}

func TestRandomDelaysRejected(t *testing.T) {
	b := petri.NewBuilder("rand")
	b.Place("a", 1)
	b.Trans("t").In("a").Out("a").Enabling(petri.Uniform{Lo: 1, Hi: 2})
	if _, err := Evaluate(context.Background(), b.MustBuild(), Options{}); err == nil {
		t.Error("random-delay net accepted")
	}
}

func TestUnknownNames(t *testing.T) {
	r, err := Evaluate(context.Background(), stationNet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Utilization("ghost"); err == nil {
		t.Error("unknown place accepted")
	}
	if _, err := r.Throughput("ghost"); err == nil {
		t.Error("unknown transition accepted")
	}
	if _, err := r.ProbMarked("ghost", 1); err == nil {
		t.Error("unknown place accepted by ProbMarked")
	}
}

// TestPipelineAnalyticMatchesSimulation is the RP84-style validation on
// the paper's own model: the analytic bus utilization and instruction
// rate of the full pipeline net must agree with long-run simulation.
func TestPipelineAnalyticMatchesSimulation(t *testing.T) {
	net, err := pipeline.Processor(pipeline.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Evaluate(context.Background(), net, Options{MaxStates: 500_000})
	if err != nil {
		t.Skipf("pipeline timed state space not solvable: %v", err)
	}
	aBus, err := r.Utilization("Bus_busy")
	if err != nil {
		t.Fatal(err)
	}
	aIssue, err := r.Throughput("Issue")
	if err != nil {
		t.Fatal(err)
	}
	s := stats.New(trace.HeaderOf(net))
	if _, err := sim.Run(context.Background(), net, s, sim.Options{Horizon: 400_000, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	sBus, _ := s.Utilization("Bus_busy")
	sIssue, _ := s.Throughput("Issue")
	t.Logf("bus: analytic %.4f vs simulated %.4f; issue: analytic %.4f vs simulated %.4f (states=%d)",
		aBus, sBus, aIssue, sIssue, r.States)
	if math.Abs(aBus-sBus) > 0.02 {
		t.Errorf("bus utilization: analytic %.4f vs simulated %.4f", aBus, sBus)
	}
	if math.Abs(aIssue-sIssue) > 0.01 {
		t.Errorf("issue rate: analytic %.4f vs simulated %.4f", aIssue, sIssue)
	}
}
