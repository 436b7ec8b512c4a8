package analytic

// This file freezes the Cesàro-averaged power iteration Evaluate used
// before the sparse state-reduction solve, as the test oracle the new
// solve is compared against (solve_test.go). Its figures are
// accurate to its own residual, about 1e-5 relative, which bounds how
// closely the two can be asked to agree.
//
// Do not "improve" this file; it is the reference.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/petri"
	"repro/internal/reach"
)

// evaluatePower is Evaluate as it was before the state-reduction solve:
// the embedded chain's stationary distribution comes from a Cesàro
// averaged power iteration, which converges only as 1/n and so runs to
// its 200,000-sweep cap, leaving an L1 stationarity residual near 1e-5.
// ctx cancels the graph construction only.
func evaluatePower(ctx context.Context, net *petri.Net, opt Options) (*Result, error) {
	g, err := reach.BuildTimed(ctx, net, opt)
	if err != nil {
		return nil, err
	}
	if g.Truncated {
		cap := opt.MaxStates
		if cap <= 0 {
			cap = 100_000
		}
		return nil, fmt.Errorf("analytic: timed state space exceeds %d states (is the net bounded?)", cap)
	}
	if dl := g.Deadlocks(); len(dl) > 0 {
		return nil, fmt.Errorf("analytic: net deadlocks (e.g. state %d: %s); no steady state",
			dl[0], g.MarkingOf(dl[0]).Format(net))
	}
	n := len(g.Nodes)
	// Transition probabilities and sojourn times.
	type edge struct {
		to int
		p  float64
	}
	edges := make([][]edge, n)
	sojourn := make([]float64, n)
	for i, node := range g.Nodes {
		if len(node.Out) == 1 && node.Out[0].Trans == reach.TimeAdvance {
			sojourn[i] = float64(g.Advance(i))
			edges[i] = []edge{{to: int(node.Out[0].To), p: 1}}
			continue
		}
		// Conflict state: the simulator picks among ripe transitions
		// with probability proportional to frequency; the timed graph
		// has one start edge per ripe transition.
		total := 0.0
		for _, e := range node.Out {
			total += net.Trans[e.Trans].EffFreq()
		}
		if total <= 0 {
			return nil, fmt.Errorf("analytic: state %d has no weighted successors", i)
		}
		for _, e := range node.Out {
			edges[i] = append(edges[i], edge{to: int(e.To), p: net.Trans[e.Trans].EffFreq() / total})
		}
	}
	// Stationary distribution of the embedded chain by power iteration
	// with Cesàro averaging (deterministic nets are periodic; plain
	// power iteration would oscillate).
	pi := make([]float64, n)
	next := make([]float64, n)
	avg := make([]float64, n)
	prevAvg := make([]float64, n)
	pi[0] = 1
	const maxIter = 200_000
	const tol = 1e-12
	steps := 0.0
	for iter := 1; iter <= maxIter; iter++ {
		for i := range next {
			next[i] = 0
		}
		for i, p := range pi {
			if p == 0 {
				continue
			}
			for _, e := range edges[i] {
				next[e.to] += p * e.p
			}
		}
		pi, next = next, pi
		steps++
		for i := range avg {
			avg[i] += (pi[i] - avg[i]) / steps
		}
		if iter%64 == 0 {
			d := 0.0
			for i := range avg {
				d += math.Abs(avg[i] - prevAvg[i])
			}
			copy(prevAvg, avg)
			if d < tol && iter > 256 {
				break
			}
		}
	}
	// Time-stationary distribution.
	r := &Result{States: n, net: net, graph: g, pi: avg}
	var norm float64
	r.timeShare = make([]float64, n)
	for i := range avg {
		r.timeShare[i] = avg[i] * sojourn[i]
		norm += r.timeShare[i]
	}
	if norm <= 0 {
		return nil, fmt.Errorf("analytic: zero mean sojourn (net is untimed?)")
	}
	for i := range r.timeShare {
		r.timeShare[i] /= norm
	}
	r.MeanSojourn = norm
	return r, nil
}
