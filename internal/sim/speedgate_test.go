//go:build !race

// The race detector slows the two engines by different factors, so the
// gate runs only in builds without it.

package sim_test

import (
	"context"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/sim"
)

// TestEngineSpeedGate is the indexed scheduler's throughput gate. It
// times the warm indexed engine and the frozen linear-scan oracle
// (oracle_test.go) on benchNet in interleaved pairs, alternating which
// side runs first, and fails when the median ratio of oracle time to
// indexed time falls below floor. Both sides share the machine, the
// process and the moment, so the ratio needs no machine-bound baseline,
// and the median discards the pairs a burst of host load skewed.
func TestEngineSpeedGate(t *testing.T) {
	const (
		// 15 pairs take about 5 s on a 2-vCPU host.
		pairs = 15
		// Over 20 runs on a 2-vCPU host the median ratio was 3.30–3.86
		// and single pairs ranged 2.32–5.57. A busy loop adding about
		// 30% to the firing path moved the median to 2.68–2.97.
		floor = 3.0
	)
	net := benchNet()
	opt := sim.Options{Seed: 1, Horizon: benchHorizon}
	eng, oracle := sim.NewEngine(net), sim.NewOracle(net)
	var fast, slow int64
	ratios := pairedRatios(t, pairs, func() {
		res, err := eng.Run(context.Background(), nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		fast = res.Ends
	}, func() {
		res, err := oracle.Run(nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		slow = res.Ends
	})
	if fast != slow || fast == 0 {
		t.Fatalf("indexed engine completed %d firings, oracle %d: the gate compares unequal work", fast, slow)
	}
	med := ratios[len(ratios)/2]
	t.Logf("oracle/indexed time over %d pairs: median %.2f, min %.2f, max %.2f (floor %.2f)",
		pairs, med, ratios[0], ratios[len(ratios)-1], floor)
	if med < floor {
		t.Fatalf("indexed engine is %.2fx the linear oracle (median of %d pairs), want at least %.2fx", med, pairs, floor)
	}
}

// pairedRatios warms fast and slow once each, then times them in pairs,
// alternating which runs first, and returns each pair's slow/fast time
// ratio in ascending order. A collection before every timed run keeps
// one side's garbage out of the other's time.
func pairedRatios(t *testing.T, pairs int, fast, slow func()) []float64 {
	t.Helper()
	timed := func(run func()) float64 {
		runtime.GC()
		start := time.Now()
		run()
		return float64(time.Since(start))
	}
	fast()
	slow()
	ratios := make([]float64, pairs)
	for i := range ratios {
		var f, s float64
		if i%2 == 0 {
			f = timed(fast)
			s = timed(slow)
		} else {
			s = timed(slow)
			f = timed(fast)
		}
		ratios[i] = s / f
	}
	sort.Float64s(ratios)
	return ratios
}
