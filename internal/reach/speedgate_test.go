//go:build !race

// The race detector slows the two builders by different factors, so the
// gate runs only in builds without it.

package reach

import (
	"context"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/modelgen"
)

// TestBuildSpeedGate is the exploration core's throughput gate. It
// times Build at one shard and the frozen serial oracle (oracle_test.go)
// on a fork/join net in interleaved pairs, alternating which side runs
// first, and fails when the median ratio of oracle time to Build time
// falls below floor. Both sides share the machine, the process and the
// moment, so the ratio needs no machine-bound baseline, and the median
// discards the pairs a burst of host load skewed.
func TestBuildSpeedGate(t *testing.T) {
	const (
		// 31 pairs take about 2.5 s on a 2-vCPU host.
		pairs = 31
		// Over 20 runs on a 2-vCPU host the median ratio was 4.60–5.19
		// and single pairs ranged 2.66–8.10. A busy loop in expand
		// that slows Build by about 28% moved the median to 3.64–3.97.
		floor = 4.0
	)
	ctx := context.Background()
	net := modelgen.ForkJoin(6, 4, 1)
	var fast, slow int
	ratios := pairedRatios(t, pairs, func() {
		g, err := Build(ctx, net, Options{Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		fast = len(g.Nodes)
	}, func() {
		g, err := BuildSerial(ctx, net, Options{})
		if err != nil {
			t.Fatal(err)
		}
		slow = len(g.Nodes)
	})
	if fast != slow || fast < 2 {
		t.Fatalf("Build found %d states, the oracle %d: the gate compares unequal work", fast, slow)
	}
	med := ratios[len(ratios)/2]
	t.Logf("oracle/Build time over %d pairs on %d states: median %.2f, min %.2f, max %.2f (floor %.2f)",
		pairs, fast, med, ratios[0], ratios[len(ratios)-1], floor)
	if med < floor {
		t.Fatalf("Build is %.2fx the serial oracle (median of %d pairs), want at least %.2fx", med, pairs, floor)
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
