package experiment

// The serial replication oracle: the plainest possible loop over
// replications — a fresh engine per seed, no pool, no cell records, no
// assembly — against which the zero-axis Sweep is held bit for bit.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/petri"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// serialRun is the oracle's outcome, shaped like one PointResult.
type serialRun struct {
	Summaries []stats.Summary
	Values    [][]float64 // Values[m][i] is metric m of replication i
	Pooled    *stats.Stats
}

// replicateSerial runs n replications of net one after another, seeding
// replication i with baseSeed+i, and folds their statistics and metric
// values in replication order.
func replicateSerial(net *petri.Net, opt sim.Options, baseSeed int64, n int, metrics []Metric) (serialRun, error) {
	h := trace.HeaderOf(net)
	out := serialRun{Values: make([][]float64, len(metrics))}
	for i := 0; i < n; i++ {
		o := opt
		o.Seed = baseSeed + int64(i)
		s := stats.New(h)
		if _, err := sim.Run(context.Background(), net, s, o); err != nil {
			return serialRun{}, fmt.Errorf("replication %d: %w", i, err)
		}
		for m := range metrics {
			v, err := metrics[m].Eval(s)
			if err != nil {
				return serialRun{}, fmt.Errorf("replication %d metric %s: %w", i, metrics[m].Name, err)
			}
			out.Values[m] = append(out.Values[m], v)
		}
		if out.Pooled == nil {
			out.Pooled = s
		} else if err := out.Pooled.Merge(s); err != nil {
			return serialRun{}, fmt.Errorf("merging replication %d: %w", i, err)
		}
	}
	for m := range metrics {
		out.Summaries = append(out.Summaries, stats.Summarize(out.Values[m]))
	}
	return out, nil
}

func reportOf(t *testing.T, s *stats.Stats) string {
	t.Helper()
	var b strings.Builder
	if err := s.Report(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestMatchesReplicate: a zero-axis Sweep is the replication driver, so
// at any worker count it must equal the serial oracle on the same seeds
// — summaries and per-replication values with ==, pooled statistics by
// their report bytes.
func TestMatchesReplicate(t *testing.T) {
	net := testNet(t)
	metrics := []Metric{Throughput("Issue"), Utilization("Bus_busy")}
	want, err := replicateSerial(net, sim.Options{Horizon: 2_000}, 400, 12, metrics)
	if err != nil {
		t.Fatal(err)
	}
	wantReport := reportOf(t, want.Pooled)
	for _, workers := range []int{1, 4} {
		pt := run(t, net, workers).Points[0]
		for m := range metrics {
			if pt.Summaries[m] != want.Summaries[m] {
				t.Errorf("workers=%d: %s summary %+v != serial %+v", workers, metrics[m].Name, pt.Summaries[m], want.Summaries[m])
			}
			for i, v := range want.Values[m] {
				if pt.Values[m][i] != v {
					t.Errorf("workers=%d: %s replication %d = %v, serial %v", workers, metrics[m].Name, i, pt.Values[m][i], v)
				}
			}
		}
		if reportOf(t, pt.Pooled) != wantReport {
			t.Errorf("workers=%d: pooled report not byte-identical to the serial oracle", workers)
		}
	}
}
