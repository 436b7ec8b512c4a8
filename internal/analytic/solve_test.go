package analytic

import (
	"context"
	"errors"
	"math"
	"os"
	"testing"

	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/ptl"
)

// The state-reduction solve and the power-iteration oracle agree within
// oracleTol relative plus oracleAbs absolute. The oracle stops at its
// sweep cap with an L1 stationarity residual of 1e-5, which leaves
// figures of the catalogue processors up to 3e-4 off in relative terms;
// 1e-3 is the tolerance the benchmark applies to the same oracle's
// figures. Its Cesàro average also keeps the weight of the transient
// prefix, O(1/sweeps), on figures that are exactly 0 in the steady state.
const oracleTol, oracleAbs = 1e-3, 1e-4

// probStationNet: probabilistic service, 1 tick with weight 3 and 3
// ticks with weight 1, arrivals every 4 ticks.
func probStationNet(t *testing.T) *petri.Net {
	t.Helper()
	b := petri.NewBuilder("probstation")
	b.Place("idle", 1)
	b.Place("queue", 0)
	b.Place("busy_fast", 0)
	b.Place("busy_slow", 0)
	b.Place("src", 1)
	b.Trans("arrive").In("src").Out("src").Out("queue").EnablingConst(4)
	b.Trans("begin_fast").In("queue").In("idle").Out("busy_fast").Freq(3)
	b.Trans("begin_slow").In("queue").In("idle").Out("busy_slow").Freq(1)
	b.Trans("finish_fast").In("busy_fast").Out("idle").EnablingConst(1)
	b.Trans("finish_slow").In("busy_slow").Out("idle").EnablingConst(3)
	return b.MustBuild()
}

// twoLoopsNet: a 3:1 free choice at time 0 sends the token into one of
// two disjoint timed loops for good, so the chain has two closed
// classes. Both loops take 3 ticks over the same number of steps, so
// the long-run figures are the 3:1 mixture of the loops' own.
func twoLoopsNet(t *testing.T) *petri.Net {
	t.Helper()
	b := petri.NewBuilder("twoloops")
	b.Place("start", 1)
	b.Place("a1", 0)
	b.Place("a2", 0)
	b.Place("b1", 0)
	b.Place("b2", 0)
	b.Trans("choose_a").In("start").Out("a1").Freq(3)
	b.Trans("choose_b").In("start").Out("b1").Freq(1)
	b.Trans("a12").In("a1").Out("a2").EnablingConst(1)
	b.Trans("a21").In("a2").Out("a1").EnablingConst(2)
	b.Trans("b12").In("b1").Out("b2").EnablingConst(2)
	b.Trans("b21").In("b2").Out("b1").EnablingConst(1)
	return b.MustBuild()
}

func mutexNet(t *testing.T) *petri.Net {
	t.Helper()
	src, err := os.ReadFile("../../testdata/mutex.pn")
	if err != nil {
		t.Fatal(err)
	}
	net, err := ptl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// catalogueNet is the processor at one of the benchmark's catalogue
// design points.
func catalogueNet(t *testing.T, memory, buffer, prefetch, decode, ea int) *petri.Net {
	t.Helper()
	p := pipeline.DefaultParams()
	p.MemoryCycles = petri.Time(memory)
	p.BufferWords = buffer
	p.PrefetchWords = prefetch
	p.DecodeCycles = petri.Time(decode)
	p.EACyclesPerOperand = petri.Time(ea)
	net, err := pipeline.Processor(p)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// figures lists every utilization and throughput of r, places first.
func figures(t *testing.T, net *petri.Net, r *Result) []float64 {
	t.Helper()
	var out []float64
	for _, p := range net.Places {
		u, err := r.Utilization(p.Name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, u)
	}
	for i := range net.Trans {
		th, err := r.Throughput(net.Trans[i].Name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, th)
	}
	return out
}

// residual is the L1 stationarity residual ‖πP − π‖₁ of r's embedded
// distribution.
func residual(t *testing.T, r *Result) float64 {
	t.Helper()
	rows, _, err := embeddedChain(r.net, r.graph)
	if err != nil {
		t.Fatal(err)
	}
	next := make([]float64, len(rows))
	for i, row := range rows {
		for _, e := range row {
			next[e.to] += r.pi[i] * e.p
		}
	}
	d := 0.0
	for i := range next {
		d += math.Abs(next[i] - r.pi[i])
	}
	return d
}

func evaluate(t *testing.T, net *petri.Net, opt Options) *Result {
	t.Helper()
	r, err := Evaluate(context.Background(), net, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSolveMatchesOracle(t *testing.T) {
	cases := []struct {
		name string
		net  *petri.Net
		// Catalogue references: exact stationary values to 10 digits
		// (zero where the net has none).
		issue, bus float64
	}{
		{name: "station", net: stationNet(t)},
		{name: "probstation", net: probStationNet(t)},
		{name: "mutex", net: mutexNet(t)},
		{name: "twoloops", net: twoLoopsNet(t)},
		{"processor 1,4,3,1,2", catalogueNet(t, 1, 4, 3, 1, 2), 0.1797375831, 0.1677550776},
		{"processor 2,6,2,2,1", catalogueNet(t, 2, 6, 2, 2, 1), 0.155544581, 0.3421980782},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := evaluate(t, c.net, Options{})
			o, err := evaluatePower(context.Background(), c.net, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if r.States != o.States {
				t.Fatalf("%d states, oracle %d", r.States, o.States)
			}
			got, want := figures(t, c.net, r), figures(t, c.net, o)
			for i := range got {
				if math.Abs(got[i]-want[i]) > oracleTol*math.Max(math.Abs(got[i]), math.Abs(want[i]))+oracleAbs {
					t.Errorf("figure %d = %.12g, oracle %.12g", i, got[i], want[i])
				}
			}
			if res := residual(t, r); res > 1e-12 {
				t.Errorf("stationarity residual %.3g", res)
			}
			if c.issue == 0 {
				return
			}
			issue, _ := r.Throughput("Issue")
			bus, _ := r.Utilization("Bus_busy")
			if math.Abs(issue-c.issue) > 5e-10 || math.Abs(bus-c.bus) > 5e-10 {
				t.Errorf("issue %.10g bus %.10g, want the catalogue's %.10g and %.10g", issue, bus, c.issue, c.bus)
			}
		})
	}
}

// TestSolveStationaryCacheProcessor holds the residual bound on the
// largest processor model, 12,224 timed states, which the oracle would
// take tens of seconds to solve.
func TestSolveStationaryCacheProcessor(t *testing.T) {
	net, err := pipeline.CacheProcessor(pipeline.DefaultParams(), pipeline.DefaultCacheParams())
	if err != nil {
		t.Fatal(err)
	}
	r := evaluate(t, net, Options{})
	if res := residual(t, r); res > 1e-12 {
		t.Errorf("%d states: stationarity residual %.3g", r.States, res)
	}
}

// TestMutexClosedForm: the mutex net settles into a deterministic
// schedule in which enter_a fires once per 9 ticks and a holds its
// 4-tick critical section 4 ticks of 9; the solve hits both fractions
// to the last bit or so.
func TestMutexClosedForm(t *testing.T) {
	r := evaluate(t, mutexNet(t), Options{})
	u, err := r.Utilization("crit_a")
	if err != nil {
		t.Fatal(err)
	}
	th, err := r.Throughput("enter_a")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-4.0/9) > 1e-15 || math.Abs(th-1.0/9) > 1e-15 {
		t.Errorf("crit_a %.17g (want 4/9), enter_a %.17g (want 1/9)", u, th)
	}
}

func TestTwoClosedClasses(t *testing.T) {
	net := twoLoopsNet(t)
	r := evaluate(t, net, Options{})
	rows, _, err := embeddedChain(net, r.graph)
	if err != nil {
		t.Fatal(err)
	}
	if classes, _ := closedClasses(rows); len(classes) != 2 {
		t.Fatalf("%d closed classes, want 2", len(classes))
	}
	want := map[string]float64{
		"start": 0, "a1": 3.0 / 4 / 3, "a2": 3.0 / 4 * 2 / 3, "b1": 1.0 / 4 * 2 / 3, "b2": 1.0 / 4 / 3,
		"choose_a": 0, "choose_b": 0, "a12": 3.0 / 4 / 3, "a21": 3.0 / 4 / 3, "b12": 1.0 / 4 / 3, "b21": 1.0 / 4 / 3,
	}
	for name, w := range want {
		got, err := r.Utilization(name)
		if _, ok := net.PlaceID(name); !ok {
			got, err = r.Throughput(name)
		}
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-w) > 1e-12 {
			t.Errorf("%s = %.15g, want %.15g", name, got, w)
		}
	}
}

// TestSolveDeterministic: the figures are bit-identical across
// exploration shard counts and repeated calls.
func TestSolveDeterministic(t *testing.T) {
	net, err := pipeline.Processor(pipeline.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	base := evaluate(t, net, Options{Shards: 1})
	want := figures(t, net, base)
	for _, shards := range []int{1, 2, 8} {
		r := evaluate(t, net, Options{Shards: shards})
		if r.States != base.States || r.MeanSojourn != base.MeanSojourn {
			t.Fatalf("shards %d: %d states, mean sojourn %v; want %d, %v",
				shards, r.States, r.MeanSojourn, base.States, base.MeanSojourn)
		}
		for i, got := range figures(t, net, r) {
			if got != want[i] {
				t.Errorf("shards %d: figure %d = %v, want %v", shards, i, got, want[i])
			}
		}
	}
}

// TestSolveCancelled: the solve itself stops on a cancelled context.
func TestSolveCancelled(t *testing.T) {
	const n = 2048
	ring := make([][]entry, n)
	for i := range ring {
		ring[i] = []entry{{to: int32((i + 1) % n), p: 1}}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := stationary(ctx, ring); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	pi, err := stationary(context.Background(), ring)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pi {
		if math.Abs(p-1.0/n) > 1e-15 {
			t.Fatalf("pi[%d] = %v, want 1/%d", i, p, n)
		}
	}
}
