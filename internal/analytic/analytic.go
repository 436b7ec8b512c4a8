// Package analytic implements the analytical (as opposed to
// simulation) performance evaluation the paper's conclusion refers to,
// in the manner of [RP84] (Razouk & Phelps, "Performance analysis
// using timed Petri nets"): the timed reachability graph of a
// deterministic-delay net is interpreted as a semi-Markov process —
// probabilistic branching at conflict states (probabilities
// proportional to relative firing frequencies, exactly as the
// simulator resolves races), deterministic sojourn times on
// time-advance edges — and its stationary distribution yields *exact*
// place utilizations and transition throughputs, no simulation run and
// no confidence intervals needed.
//
// The embedded jump chain is solved directly, by the subtraction-free
// state reduction of Grassmann, Taksar & Heyman ("Regenerative
// analysis and steady state distributions for Markov chains", 1985)
// over sparse rows. States outside the closed classes reachable from
// the initial state are transient and get probability 0. Each closed
// class is solved on its own; when there are several, the initial
// state's absorption probabilities into them weight the classes. The
// result is the long-run (Cesàro) average of the chain started in the
// initial state, to rounding error.
//
// Requirements are those of reach.BuildTimed (constant delays, no
// predicates/actions) plus a live steady state: a reachable deadlock
// means no stationary behaviour and is reported as an error.
package analytic

import (
	"context"
	"fmt"

	"repro/internal/petri"
	"repro/internal/reach"
)

// Result holds the analytic steady-state solution.
type Result struct {
	// States is the number of timed states.
	States int
	// MeanSojourn is the expected time per embedded-chain step (the
	// normalization constant Σ π·h).
	MeanSojourn float64

	net       *petri.Net
	graph     *reach.Graph
	pi        []float64 // embedded-chain stationary distribution
	timeShare []float64 // time-stationary distribution (π·h normalized)
}

// Options re-exports the state-space controls.
type Options = reach.Options

// Evaluate builds the timed reachability graph of net and solves the
// embedded Markov chain by sparse state reduction (see the package
// comment). ctx covers both phases: reach.BuildTimed, sharded as
// opt.Shards asks, checks it at every window barrier, the solve every 1024 state
// eliminations. The figures are bit-identical across runs, GOMAXPROCS
// values, opt.Shards and opt.SpillBudget. Close the result when done:
// with a spill budget its graph holds a temp file, which Utilization
// and ProbMarked read back and whose read errors they return.
func Evaluate(ctx context.Context, net *petri.Net, opt Options) (r *Result, err error) {
	g, err := reach.BuildTimed(ctx, net, opt)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			g.Close()
		}
	}()
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
	rows, sojourn, err := embeddedChain(net, g)
	if err == nil {
		err = g.Err() // a failed spill read cuts the sojourn walk short
	}
	if err != nil {
		return nil, err
	}
	pi, err := stationary(ctx, rows)
	if err != nil {
		return nil, err
	}
	// Time-stationary distribution.
	n := len(g.Nodes)
	r = &Result{States: n, net: net, graph: g, pi: pi}
	var norm float64
	r.timeShare = make([]float64, n)
	for i := range pi {
		r.timeShare[i] = pi[i] * sojourn[i]
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

// Close releases the timed graph's spill temp file, if any. The result
// must not be used afterwards.
func (r *Result) Close() error { return r.graph.Close() }

// Utilization returns the time-stationary expected token count of a
// place — the analytic counterpart of the stat tool's "avg tokens".
func (r *Result) Utilization(place string) (float64, error) {
	id, ok := r.net.PlaceID(place)
	if !ok {
		return 0, fmt.Errorf("analytic: unknown place %q", place)
	}
	u := 0.0
	r.graph.EachMarking(func(i int, m petri.Marking) bool {
		u += r.timeShare[i] * float64(m[id])
		return true
	})
	return u, r.graph.Err()
}

// Throughput returns the steady-state firing rate of a transition per
// unit time — the analytic counterpart of the stat tool's throughput.
func (r *Result) Throughput(transition string) (float64, error) {
	id, ok := r.net.TransIDByName(transition)
	if !ok {
		return 0, fmt.Errorf("analytic: unknown transition %q", transition)
	}
	// Expected number of firings of id per embedded step, divided by
	// the expected time per step.
	starts := 0.0
	for i, node := range r.graph.Nodes {
		if r.pi[i] == 0 || len(node.Out) == 0 {
			continue
		}
		if node.Out[0].Trans == reach.TimeAdvance {
			continue
		}
		total := 0.0
		for _, e := range node.Out {
			total += r.net.Trans[e.Trans].EffFreq()
		}
		for _, e := range node.Out {
			if petri.TransID(e.Trans) == id {
				starts += r.pi[i] * r.net.Trans[e.Trans].EffFreq() / total
			}
		}
	}
	return starts / r.MeanSojourn, nil
}

// ProbMarked returns the time-stationary probability that a place holds
// at least min tokens (e.g. the fraction of time the bus is busy).
func (r *Result) ProbMarked(place string, min int) (float64, error) {
	id, ok := r.net.PlaceID(place)
	if !ok {
		return 0, fmt.Errorf("analytic: unknown place %q", place)
	}
	p := 0.0
	r.graph.EachMarking(func(i int, m petri.Marking) bool {
		if m[id] >= min {
			p += r.timeShare[i]
		}
		return true
	})
	return p, r.graph.Err()
}
