package stats

import (
	"math"
	"testing"
)

func TestSummarizeSmallSamples(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Errorf("empty: %+v", s)
	}
	s := Summarize([]float64{4})
	if s.N != 1 || s.Mean != 4 || s.StdDev != 0 {
		t.Errorf("single: %+v", s)
	}
	s = Summarize([]float64{1, 3})
	if s.Mean != 2 || math.Abs(s.StdDev-math.Sqrt2) > 1e-12 {
		t.Errorf("pair: %+v", s)
	}
	// df=1 uses the heavy t quantile.
	if s.CI95 < 10 {
		t.Errorf("CI for df=1 should use t=12.7: %+v", s)
	}
	// Large sample approaches the normal quantile.
	large := make([]float64, 100)
	for i := range large {
		large[i] = float64(i % 2)
	}
	ls := Summarize(large)
	want := 1.96 * ls.StdDev / 10
	if math.Abs(ls.CI95-want) > 1e-9 {
		t.Errorf("large-sample CI = %v, want %v", ls.CI95, want)
	}
}
