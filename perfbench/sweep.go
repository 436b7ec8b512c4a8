package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/experiment"
	"repro/internal/petri"
	"repro/internal/sweepcli"
)

// sweep_cache: one sweep job per unit over the paper's cached processor,
// resolved from a sweepcli.Spec exactly as pnut-sweep and pnut-server
// resolve theirs, run by experiment.Sweep at the default worker count
// and rendered to CSV. The sim hot loop and the sweep driver do nearly
// all the work; nothing in this path caches, so the jobs' base seeds
// cycle through a few whose single-worker CSVs set-up computes as the
// references.

const (
	sweepJobs    = 4     // distinct base seeds, each with a reference CSV
	sweepReps    = 6     // replications per grid point
	sweepHorizon = 12000 // simulated cycles per replication
)

var sweepAxes = []string{"DHitRatio=0.5,0.7,0.9", "MemoryCycles=2,5,10"}

type sweepJob struct {
	spec sweepcli.Spec
	csv  []byte // the single-worker rendering
}

type sweepBench struct {
	jobs []sweepJob
	next int
}

func setupSweep(ctx context.Context, c *config) (instance, error) {
	rng := rand.New(rand.NewSource(c.seed))
	b := &sweepBench{}
	for j := 0; j < sweepJobs; j++ {
		spec := sweepcli.Spec{
			Model:       "cache",
			Axes:        sweepAxes,
			Reps:        sweepReps,
			Seed:        1 + rng.Int63n(1<<40),
			Horizon:     sweepHorizon,
			Throughput:  []string{"Issue"},
			Utilization: []string{"Bus_busy"},
		}
		opt, _, err := spec.Resolve()
		if err != nil {
			return nil, err
		}
		opt.Workers = 1
		res, err := experiment.Sweep(ctx, opt)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			return nil, err
		}
		b.jobs = append(b.jobs, sweepJob{spec: spec, csv: buf.Bytes()})
	}
	if err := b.unit(ctx, coldUnit(b.next)); err != nil {
		return nil, fmt.Errorf("cold unit: %w", err)
	}
	b.next++
	return b, nil
}

func (b *sweepBench) run(ctx context.Context, p *phase) error {
	return closedLoop(ctx, p, &b.next, b.unit)
}

func (b *sweepBench) close() error { return nil }

// unit runs job i at the default worker count and checks its CSV
// against the single-worker reference.
func (b *sweepBench) unit(ctx context.Context, u unitRun) error {
	i, rec := u.i, u.rec
	job := &b.jobs[i%len(b.jobs)]
	var opt experiment.SweepOptions
	err := u.call("sweepcli", "sweepcli.Spec.Resolve", func(int) error {
		var err error
		opt, _, err = job.spec.Resolve()
		return err
	})
	if err != nil {
		return err
	}
	var res *experiment.SweepResult
	err = u.call("experiment", "experiment.Sweep", func(id int) error {
		if rec != nil {
			instrumentSweep(&opt, rec, i, id)
		}
		t0 := time.Now()
		var err error
		res, err = experiment.Sweep(ctx, opt)
		if err == nil {
			rec.count("experiment.worker_ns", float64(res.Workers)*float64(time.Since(t0)))
			rec.count("experiment.cells", float64(opt.NumCells()))
		}
		return err
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	err = u.call("experiment", "experiment.SweepResult.WriteCSV", func(int) error {
		return res.WriteCSV(&buf)
	})
	if err != nil {
		return err
	}
	return u.call(unitLayer, "check", func(int) error {
		if !bytes.Equal(buf.Bytes(), job.csv) {
			return fmt.Errorf("sweep_cache unit %d: CSV differs from the single-worker run of base seed %d", i, job.spec.Seed)
		}
		return nil
	})
}

// instrumentSweep wraps the sweep's Build hook and backend in spans
// under the experiment.Sweep span parent.
func instrumentSweep(opt *experiment.SweepOptions, rec *recorder, unit, parent int) {
	build := opt.Build
	opt.Build = func(pt experiment.Point) (*petri.Net, error) {
		id := rec.begin(unit, parent, "pipeline", "pipeline.SweepProcessor")
		defer rec.end(id)
		return build(pt)
	}
	inner := opt.Backend
	if inner == nil {
		inner = experiment.SimBackend{}
	}
	opt.Backend = timedBackend{Backend: inner, rec: rec, unit: unit, parent: parent}
}

// timedBackend decorates a sweep backend: every RunCell becomes a sim
// span, and the cell's completed firings are counted.
type timedBackend struct {
	experiment.Backend
	rec          *recorder
	unit, parent int
}

func (b timedBackend) NewWorker(opt *experiment.SweepOptions) (experiment.BackendWorker, error) {
	w, err := b.Backend.NewWorker(opt)
	if err != nil {
		return nil, err
	}
	return timedWorker{w: w, b: b}, nil
}

type timedWorker struct {
	w experiment.BackendWorker
	b timedBackend
}

func (t timedWorker) RunCell(ctx context.Context, in experiment.CellInput) (experiment.CellOutcome, error) {
	id := t.b.rec.begin(t.b.unit, t.b.parent, "sim", "sim.RunCell")
	out, err := t.w.RunCell(ctx, in)
	t.b.rec.end(id)
	t.b.rec.count("sim.events", float64(out.Run.Ends))
	return out, err
}
