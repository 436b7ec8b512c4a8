// The shard runner is the distributed face of the sweep driver: a
// sweep's (point, replication) cells form one flat grid, any contiguous
// span of which can run in any OS process and be reassembled exactly.
//
// The contract mirrors the in-process pool cell for cell:
//
//   - Cell c = point*Reps + rep always runs with seed BaseSeed + c, in
//     any process, on any worker goroutine.
//   - A shard builds only the points its span touches, serially and in
//     point order, before its pool starts.
//   - AssembleSweep merges complete cell sets in cell order, so a grid
//     split across 1, 2 or 40 processes produces bit-for-bit the result
//     of the single-process Sweep. Package dist builds the shard plan,
//     worker processes and resume journal on top of this contract.
package experiment

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/petri"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// CellSpan is a contiguous range [Lo, Hi) of flat grid cells — the unit
// a shard plan partitions and an adaptive round re-dispatches. Package
// dist aliases it as dist.Span.
type CellSpan struct {
	Lo, Hi int
}

// Size returns the number of cells in the span.
func (s CellSpan) Size() int { return s.Hi - s.Lo }

func (s CellSpan) String() string { return fmt.Sprintf("%d:%d", s.Lo, s.Hi) }

// MissingCellSpans collects the maximal contiguous spans of cells for
// which have reports false — the re-dispatch set of a resumed run and
// the pending set of an adaptive round.
func MissingCellSpans(cells int, have func(cell int) bool) []CellSpan {
	var spans []CellSpan
	for c := 0; c < cells; {
		if have(c) {
			c++
			continue
		}
		lo := c
		for c < cells && !have(c) {
			c++
		}
		spans = append(spans, CellSpan{Lo: lo, Hi: c})
	}
	return spans
}

// CellRecord is the complete outcome of one grid cell: everything a
// coordinator needs to reassemble the exact in-process SweepResult.
type CellRecord struct {
	// Cell is the absolute grid index Point*RepStride + Rep.
	Cell  int
	Point int
	Rep   int
	// Seed echoes the cell's effective seed, BaseSeed + Cell.
	Seed int64
	// Values holds the cell's metric values in SweepOptions.Metrics
	// order.
	Values []float64
	// Stats is the cell's full statistics accumulator.
	Stats *stats.Stats
	// Run is the cell's simulation summary.
	Run sim.Result
}

// RunCellsContext executes cells [lo, hi) of opt's grid through a
// worker pool and returns their records in cell order. If emit is
// non-nil it is additionally called once per record, serialized and in
// cell order, as soon as every earlier cell of the span has finished —
// a worker process streams records out while later cells still run. An
// emit error stops the pool.
//
// Cancelling ctx stops the pool at the next cell boundary and returns
// ctx's error.
func RunCellsContext(ctx context.Context, opt SweepOptions, lo, hi int, emit func(CellRecord) error) ([]CellRecord, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	cells := opt.NumCells()
	if lo < 0 || hi > cells || lo >= hi {
		return nil, fmt.Errorf("experiment: cell span %d:%d outside grid of %d cells", lo, hi, cells)
	}
	return RunCellSpansContext(ctx, opt, []CellSpan{{Lo: lo, Hi: hi}}, emit)
}

// RunCellSpansContext executes several disjoint, ascending spans of
// opt's grid through one worker pool and returns their records in cell
// order — the workhorse of an adaptive round, whose pending set is one
// short span per unconverged point. Cells keep their absolute identity:
// seed, point and rep depend only on the cell index, never on which
// spans ran together. emit (optional) is called serialized and in cell
// order, exactly as for RunCellsContext.
func RunCellSpansContext(ctx context.Context, opt SweepOptions, spans []CellSpan, emit func(CellRecord) error) ([]CellRecord, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	cells := opt.NumCells()
	total := 0
	for i, s := range spans {
		if s.Lo < 0 || s.Hi > cells || s.Lo >= s.Hi {
			return nil, fmt.Errorf("experiment: cell span %s outside grid of %d cells", s, cells)
		}
		if i > 0 && s.Lo < spans[i-1].Hi {
			return nil, fmt.Errorf("experiment: cell spans %s and %s are not ascending and disjoint", spans[i-1], s)
		}
		total += s.Size()
	}
	if total == 0 {
		return nil, nil
	}

	// Flatten the spans: pool index idx <-> absolute cell cellOf[idx],
	// ascending, so the pool claims cells in point-major order and
	// engine reuse works exactly as for one contiguous span.
	stride := opt.RepStride()
	cellOf := make([]int, 0, total)
	for _, s := range spans {
		for c := s.Lo; c < s.Hi; c++ {
			cellOf = append(cellOf, c)
		}
	}

	// Build only the points the spans touch, serially and in point
	// order: parameter mutation in Build hooks stays single-threaded and
	// workers only ever read.
	slot := make(map[int]int) // point -> index into nets/headers/pts
	var (
		nets    []*petri.Net
		headers []trace.Header
		pts     []Point
	)
	for _, c := range cellOf {
		p := c / stride
		if _, ok := slot[p]; ok {
			continue
		}
		pt := opt.point(p)
		net, err := opt.Build(pt)
		if err != nil {
			return nil, fmt.Errorf("experiment: building point %d (%s): %w", p, pt.String(), err)
		}
		slot[p] = len(nets)
		nets = append(nets, net)
		headers = append(headers, trace.HeaderOf(net))
		pts = append(pts, pt)
	}

	workers := opt.PoolSize(total)
	recs := make([]CellRecord, total)

	// Worker-confined backend state: each pool worker lazily mints its
	// own BackendWorker (for the sim backend that keeps the old
	// engine-reuse-per-point behaviour; exhaustive backends keep their
	// resolved metric evaluators).
	backend := opt.backend()
	ws := make([]BackendWorker, workers)

	// In-order streaming: when cell k lands, flush every consecutive
	// finished record from the emit cursor. The OnCell progress hook
	// rides the same cursor, so it too observes cells in grid order.
	// The first emit error is sticky: a worker finishing its in-flight
	// cell afterwards must not emit the failed record again.
	var (
		emitMu   sync.Mutex
		emitNext int
		emitErr  error
		done     []bool
	)
	if emit != nil || opt.OnCell != nil {
		done = make([]bool, total)
	}

	if idx, err := runPool(ctx, workers, total, func(worker, idx int) error {
		cell := cellOf[idx]
		p, rep := cell/stride, cell%stride
		if ws[worker] == nil {
			w, err := backend.NewWorker(&opt)
			if err != nil {
				return err
			}
			ws[worker] = w
		}
		out, err := ws[worker].RunCell(ctx, CellInput{
			Cell:   cell,
			Point:  p,
			Net:    nets[slot[p]],
			Header: headers[slot[p]],
			Seed:   opt.BaseSeed + int64(cell),
		})
		if err != nil {
			return err
		}
		recs[idx] = CellRecord{
			Cell: cell, Point: p, Rep: rep,
			Seed:   opt.BaseSeed + int64(cell),
			Values: out.Values,
			Stats:  out.Stats,
			Run:    out.Run,
		}
		if emit == nil && opt.OnCell == nil {
			return nil
		}
		emitMu.Lock()
		defer emitMu.Unlock()
		if emitErr != nil {
			return emitErr
		}
		done[idx] = true
		for emitNext < total && done[emitNext] {
			r := &recs[emitNext]
			if emit != nil {
				if err := emit(*r); err != nil {
					emitErr = fmt.Errorf("emitting cell %d: %w", cellOf[emitNext], err)
					return emitErr
				}
			}
			if opt.OnCell != nil {
				opt.OnCell(pts[slot[r.Point]], r.Rep)
			}
			emitNext++
		}
		return nil
	}); err != nil {
		if idx < 0 {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		cell := cellOf[idx]
		p, rep := cell/stride, cell%stride
		return nil, fmt.Errorf("experiment: point %d (%s) replication %d: %w", p, pts[slot[p]].String(), rep, err)
	}
	return recs, nil
}

// AssembleSweep reassembles a complete set of cell records — in any
// order, from any number of shards or processes — into the exact
// SweepResult the in-process Sweep produces: per-point statistics merge
// in replication order and metric values summarize in replication
// order, so the floating-point arithmetic associates identically.
//
// A fixed sweep requires every cell of the grid. An adaptive sweep
// tolerates variable per-point replication counts: each point must hold
// a gap-free replication prefix of at least Adaptive.MinReps records,
// and the point is assembled from exactly that prefix.
//
// The input records are not modified: each point's pool starts from a
// clone of its first accumulator, so a coordinator may re-journal or
// re-assemble the same records afterwards. Workers and Elapsed are left
// for the caller: they describe the run, not the result.
func AssembleSweep(opt SweepOptions, recs []CellRecord) (*SweepResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	points, stride, cells := opt.NumPoints(), opt.RepStride(), opt.NumCells()
	byCell := make([]*CellRecord, cells)
	for i := range recs {
		rec := &recs[i]
		if rec.Cell < 0 || rec.Cell >= cells {
			return nil, fmt.Errorf("experiment: cell record %d outside grid of %d cells", rec.Cell, cells)
		}
		if byCell[rec.Cell] != nil {
			return nil, fmt.Errorf("experiment: duplicate record for cell %d", rec.Cell)
		}
		if len(rec.Values) != len(opt.Metrics) {
			return nil, fmt.Errorf("experiment: cell %d has %d metric values, sweep has %d metrics",
				rec.Cell, len(rec.Values), len(opt.Metrics))
		}
		if rec.Stats == nil {
			return nil, fmt.Errorf("experiment: cell %d has no statistics", rec.Cell)
		}
		byCell[rec.Cell] = rec
	}

	// Per-point replication counts: the fixed Reps, or — adaptively —
	// each point's gap-free record prefix.
	nreps := make([]int, points)
	for p := 0; p < points; p++ {
		if opt.Adaptive == nil {
			nreps[p] = opt.Reps
		} else {
			n := 0
			for n < stride && byCell[p*stride+n] != nil {
				n++
			}
			if n < opt.Adaptive.MinReps {
				return nil, fmt.Errorf("experiment: incomplete grid: point %d has %d replications, adaptive minimum is %d",
					p, n, opt.Adaptive.MinReps)
			}
			nreps[p] = n
		}
		for rep := 0; rep < nreps[p]; rep++ {
			if byCell[p*stride+rep] == nil {
				return nil, fmt.Errorf("experiment: incomplete grid: missing cell %d (point %d replication %d)",
					p*stride+rep, p, rep)
			}
		}
		for rep := nreps[p]; rep < stride; rep++ {
			if byCell[p*stride+rep] != nil {
				return nil, fmt.Errorf("experiment: point %d has replication %d but not %d: replication prefix has a gap",
					p, rep, nreps[p])
			}
		}
	}

	r := &SweepResult{
		Axes:     opt.Axes,
		Points:   make([]PointResult, points),
		Reps:     stride, // fixed Reps, or the adaptive per-point cap
		Adaptive: opt.Adaptive,
		names:    make([]string, len(opt.Metrics)),
	}
	for m := range opt.Metrics {
		r.names[m] = opt.Metrics[m].Name
	}
	for p := 0; p < points; p++ {
		n := nreps[p]
		// Fold each point in replication order: floating-point sums then
		// associate the same way no matter how cells were scheduled. The
		// fold starts from a clone so the caller's records stay intact.
		pooled := byCell[p*stride].Stats.Clone()
		for rep := 1; rep < n; rep++ {
			if err := pooled.Merge(byCell[p*stride+rep].Stats); err != nil {
				return nil, fmt.Errorf("experiment: merging point %d replication %d: %w", p, rep, err)
			}
		}
		pr := PointResult{
			Point:     opt.point(p),
			Reps:      n,
			Pooled:    pooled,
			Summaries: make([]stats.Summary, len(opt.Metrics)),
			Values:    make([][]float64, len(opt.Metrics)),
			Runs:      make([]sim.Result, n),
		}
		for m := range opt.Metrics {
			pr.Values[m] = make([]float64, n)
		}
		for rep := 0; rep < n; rep++ {
			rec := byCell[p*stride+rep]
			pr.Runs[rep] = rec.Run
			for m := range rec.Values {
				pr.Values[m][rep] = rec.Values[m]
			}
			r.Events += rec.Run.Ends
		}
		for m := range opt.Metrics {
			pr.Summaries[m] = stats.Summarize(pr.Values[m])
		}
		r.TotalReps += n
		r.Points[p] = pr
	}
	return r, nil
}
