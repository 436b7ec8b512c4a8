package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/analytic"
	"repro/internal/modelgen"
	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/reach"
)

// exact_analysis: one design point of the paper's processor family per
// unit. The unit solves the uncached processor exactly (analytic.Evaluate:
// the timed state space plus the embedded-chain solve), explores the
// cached processor's untimed state space and checks bus mutual
// exclusion and deadlock freedom on it, then explores a fork-join net
// large enough that exploration, not only the solve, shows end to end.

// designPoint is one structural variant of the Section 2 processor with
// its reference figures. The analytic references are the exact
// stationary values, from a direct linear solve of the embedded chain;
// the power iteration stops at its cap a little short of them, so they
// are compared within exactTol. The catalogue's points have similar
// solve costs, so a unit's cost hardly depends on which point it draws.
type designPoint struct {
	memoryCycles, bufferWords, prefetchWords, decodeCycles, eaCycles int

	timedStates int     // analytic.Result.States
	issueRate   float64 // throughput of Issue
	busUtil     float64 // utilization of Bus_busy
	cacheStates int     // untimed states of the cached processor
}

var catalogue = []designPoint{
	{1, 4, 3, 1, 2, 515, 0.1797375831, 0.1677550776, 1932},
	{1, 5, 3, 1, 2, 521, 0.1797375831, 0.1677550776, 2664},
	{1, 6, 2, 1, 1, 533, 0.1898490107, 0.2088339118, 3972},
	{1, 6, 2, 1, 2, 489, 0.1795493312, 0.1975042643, 3972},
	{1, 6, 3, 1, 2, 523, 0.1797375831, 0.1677550776, 3396},
	{2, 4, 2, 1, 1, 538, 0.1676364426, 0.3688001738, 2508},
	{2, 4, 2, 1, 2, 528, 0.1647180496, 0.3623797091, 2508},
	{2, 6, 2, 2, 1, 510, 0.155544581, 0.3421980782, 3972},
}

const (
	// exactTol is the relative tolerance on analytic figures: ten times
	// the largest residual the capped power iteration leaves on the
	// catalogue, so a solver that converges further still passes.
	exactTol = 1e-3
	// The fork-join net: 7 branches of depth 4 reach 5^7+1 states
	// whatever the seed, which only draws the delays.
	forkWidth, forkDepth, forkStates = 7, 4, 78126
)

func (d *designPoint) params() pipeline.Params {
	p := pipeline.DefaultParams()
	p.MemoryCycles = petri.Time(d.memoryCycles)
	p.BufferWords = d.bufferWords
	p.PrefetchWords = d.prefetchWords
	p.DecodeCycles = petri.Time(d.decodeCycles)
	p.EACyclesPerOperand = petri.Time(d.eaCycles)
	return p
}

type exactBench struct {
	seed       int64
	busMutex   reach.Formula
	noDeadlock reach.Formula
	next       int
	// probed collects the processor nets of traced units, whose timed
	// state spaces are built again after the phase to split the solve
	// from the exploration inside analytic.Evaluate.
	probed []probedNet
}

type probedNet struct {
	unit int
	net  *petri.Net
}

func setupExact(ctx context.Context, c *config) (instance, error) {
	b := &exactBench{seed: c.seed}
	var err error
	if b.busMutex, err = reach.ParseFormula("AG({Bus_busy + Bus_free <= 1})"); err != nil {
		return nil, err
	}
	if b.noDeadlock, err = reach.ParseFormula("AG(!deadlock)"); err != nil {
		return nil, err
	}
	if err := b.unit(ctx, coldUnit(b.next)); err != nil {
		return nil, fmt.Errorf("cold unit: %w", err)
	}
	b.next++
	return b, nil
}

// unitInputs draws unit i's inputs from the seed: the design point (a
// fresh permutation of the catalogue per cycle of units), the cache hit
// ratios and the fork-join delays' seed.
func (b *exactBench) unitInputs(i int) (*designPoint, pipeline.CacheParams, int64) {
	cycle := i / len(catalogue)
	perm := rand.New(rand.NewSource(b.seed*7919 + int64(cycle))).Perm(len(catalogue))
	rng := rand.New(rand.NewSource(b.seed*104729 + int64(i)))
	cp := pipeline.CacheParams{
		IHitRatio: 0.1 + 0.85*rng.Float64(),
		DHitRatio: 0.1 + 0.85*rng.Float64(),
		HitCycles: 1,
	}
	return &catalogue[perm[i%len(catalogue)]], cp, rng.Int63()
}

func (b *exactBench) run(ctx context.Context, p *phase) error {
	b.probed = b.probed[:0]
	if err := closedLoop(ctx, p, &b.next, b.unit); err != nil {
		return err
	}
	for _, pn := range b.probed {
		id := p.rec.begin(pn.unit, noSpan, "reach", "reach.BuildTimed")
		g, err := reach.BuildTimed(ctx, pn.net, reach.Options{})
		p.rec.end(id)
		if err != nil {
			return err
		}
		p.rec.count("reach.timed_states", float64(len(g.Nodes)))
	}
	return nil
}

func (b *exactBench) close() error { return nil }

func (b *exactBench) unit(ctx context.Context, u unitRun) error {
	d, cp, forkSeed := b.unitInputs(u.i)
	p := d.params()

	var proc *petri.Net
	err := u.call("pipeline", "pipeline.Processor", func(int) error {
		var err error
		proc, err = pipeline.Processor(p)
		return err
	})
	if err != nil {
		return err
	}
	if u.rec != nil {
		b.probed = append(b.probed, probedNet{u.i, proc})
	}
	var res *analytic.Result
	err = u.call("analytic", "analytic.Evaluate", func(int) error {
		var err error
		res, err = analytic.Evaluate(ctx, proc, analytic.Options{})
		return err
	})
	if err != nil {
		return err
	}
	if err := checkAnalytic(u.i, d, res); err != nil {
		return err
	}

	var cached *petri.Net
	err = u.call("pipeline", "pipeline.CacheProcessor", func(int) error {
		var err error
		cached, err = pipeline.CacheProcessor(p, cp)
		return err
	})
	if err != nil {
		return err
	}
	if err := b.explore(ctx, u, cached, d.cacheStates, true); err != nil {
		return err
	}

	var fork *petri.Net
	err = u.call("modelgen", "modelgen.ForkJoin", func(int) error {
		fork = modelgen.ForkJoin(forkWidth, forkDepth, forkSeed)
		return nil
	})
	if err != nil {
		return err
	}
	return b.explore(ctx, u, fork, forkStates, false)
}

// explore builds net's untimed state space, checks its size and, for
// the processor, its CTL properties.
func (b *exactBench) explore(ctx context.Context, u unitRun, net *petri.Net, want int, ctl bool) error {
	var g *reach.Graph
	err := u.call("reach", "reach.Build", func(int) error {
		var err error
		g, err = reach.Build(ctx, net, reach.Options{})
		return err
	})
	if err != nil {
		return err
	}
	defer g.Close()
	u.rec.count("reach.states", float64(len(g.Nodes)))
	u.rec.count("reach.store_bytes", float64(g.StoreBytes()))
	if len(g.Nodes) != want || g.Truncated {
		return fmt.Errorf("exact_analysis unit %d: %s has %d states (truncated %v), want %d", u.i, net.Name, len(g.Nodes), g.Truncated, want)
	}
	if !ctl {
		return nil
	}
	var mutex, live bool
	err = u.call("reach", "reach.Holds", func(int) error {
		mutex = reach.Holds(g, b.busMutex)
		live = reach.Holds(g, b.noDeadlock)
		return nil
	})
	if err != nil {
		return err
	}
	if !mutex || !live {
		return fmt.Errorf("exact_analysis unit %d: %s bus mutual exclusion %v, deadlock-free %v; want both", u.i, net.Name, mutex, live)
	}
	return nil
}

func checkAnalytic(i int, d *designPoint, res *analytic.Result) error {
	if res.States != d.timedStates {
		return fmt.Errorf("exact_analysis unit %d: %d timed states, want %d", i, res.States, d.timedStates)
	}
	issue, err := res.Throughput("Issue")
	if err != nil {
		return err
	}
	bus, err := res.Utilization("Bus_busy")
	if err != nil {
		return err
	}
	if !near(issue, d.issueRate) || !near(bus, d.busUtil) {
		return fmt.Errorf("exact_analysis unit %d: issue rate %.10g (want %.10g), bus utilization %.10g (want %.10g)",
			i, issue, d.issueRate, bus, d.busUtil)
	}
	return nil
}

func near(got, want float64) bool { return math.Abs(got-want) <= exactTol*math.Abs(want) }
