package stats

import (
	"fmt"
	"math"
)

// Summary is the result of independent replications of one experiment:
// the classical way to attach confidence to simulation estimates (each
// replication uses a distinct seed).
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation across replications
	CI95   float64 // half-width of the 95% confidence interval
	Min    float64
	Max    float64
}

func (s Summary) String() string {
	return fmt.Sprintf("%.4f ± %.4f (95%% CI, n=%d, sd=%.4f, range [%.4f, %.4f])",
		s.Mean, s.CI95, s.N, s.StdDev, s.Min, s.Max)
}

// t975 holds two-sided 97.5% Student-t quantiles for small degrees of
// freedom; beyond the table the normal quantile 1.96 is used.
var t975 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
	2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045,
}

// Summarize computes the replication summary of a sample.
func Summarize(vals []float64) Summary {
	s := Summary{N: len(vals)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = vals[0], vals[0]
	for _, v := range vals {
		s.Mean += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean /= float64(s.N)
	if s.N < 2 {
		return s
	}
	var ss float64
	for _, v := range vals {
		d := v - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / float64(s.N-1))
	df := s.N - 1
	tq := 1.96
	if df < len(t975) {
		tq = t975[df]
	}
	s.CI95 = tq * s.StdDev / math.Sqrt(float64(s.N))
	return s
}
