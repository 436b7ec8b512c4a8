// Sweep is the replication driver, from one replicated experiment up
// to a whole parameter study: the paper's workflow of sweeping design
// parameters (cache hit ratio, memory speed, ...) across many
// simulation experiments and comparing the resulting performance
// curves.
//
// A sweep expands named parameter axes into a cartesian grid of points.
// Each point is an experiment of R replications; every (point,
// replication) cell fans through one shared worker pool, so a wide
// grid with few replications parallelizes as well as a narrow grid
// with many. Every result is deterministic:
//
//   - Cell (p, r) always runs with seed BaseSeed + p*Reps + r, no
//     matter which worker executes it. For zero axes (one point) this
//     is BaseSeed+r.
//   - Nets are built once per point, before the pool starts, in point
//     order — parameter mutation never races with simulation.
//   - Workers own their engines and rebuild them only when they cross
//     a point boundary; cells are claimed in point-major order, so an
//     engine is typically reused for a whole point's replications.
//   - Per-cell results land in a slice indexed by cell and are merged
//     per point in replication order, so merged statistics and metric
//     summaries are bit-for-bit identical for any worker count.
package experiment

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/petri"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Axis is one swept parameter: a name plus the values it takes. The
// name is interpreted by the sweep's Build hook (a model parameter, a
// net variable, ...); the driver only expands the grid.
type Axis struct {
	Name   string
	Values []float64
}

// Point identifies one cell of the expanded parameter grid.
type Point struct {
	// Index is the point's row-major position in the grid (the last
	// axis varies fastest).
	Index int
	// Names and Values give the point's coordinates, parallel to the
	// sweep's Axes.
	Names  []string
	Values []float64
}

// Value returns the point's value on the named axis.
func (p *Point) Value(name string) (float64, bool) {
	for i, n := range p.Names {
		if n == name {
			return p.Values[i], true
		}
	}
	return 0, false
}

// String renders the point as "axis=value, ..." for error messages and
// table headers.
func (p *Point) String() string {
	if len(p.Names) == 0 {
		return "(origin)"
	}
	parts := make([]string, len(p.Names))
	for i := range p.Names {
		parts[i] = p.Names[i] + "=" + strconv.FormatFloat(p.Values[i], 'g', -1, 64)
	}
	return strings.Join(parts, ", ")
}

// AdaptiveOptions switch a sweep from a fixed replication count to the
// standard sequential-stopping procedure for replicated simulation:
// every point starts with MinReps replications, and between rounds each
// point whose 95% confidence interval is still too wide relative to its
// mean gets Batch more replications, until it converges or hits
// MaxReps. The stopping decision is made only from replication-order
// summaries between rounds, so it — and therefore every result byte —
// is independent of worker count, shard count and process count.
type AdaptiveOptions struct {
	// Metric names the metric (by its SweepOptions.Metrics name, e.g.
	// "throughput(Issue)") whose confidence interval drives stopping.
	Metric string `json:"metric"`
	// RelCI is the relative-precision target: a point is converged when
	// CI95 <= RelCI * |mean| of its Metric across the replications run
	// so far. A point whose mean is 0 with nonzero CI never satisfies
	// the relative criterion and runs to MaxReps.
	RelCI float64 `json:"relCI"`
	// MinReps is the first round's replication count per point (at
	// least 2 — one replication has no confidence interval).
	MinReps int `json:"minReps"`
	// MaxReps caps a point's replications; it also fixes the seed
	// layout: cell (point p, rep r) always runs with seed
	// BaseSeed + p*MaxReps + r, so a cell's seed never depends on when
	// other points stop.
	MaxReps int `json:"maxReps"`
	// Batch is the number of extra replications an unconverged point
	// receives per round (at least 1).
	Batch int `json:"batch"`
}

// SweepOptions configure one parameter sweep.
type SweepOptions struct {
	// Axes are the swept parameters; their cartesian product is the
	// grid. An empty Axes runs a single point (the origin): Reps
	// replications of one experiment.
	Axes []Axis
	// Reps is the number of independent replications per point (at
	// least 1). Ignored when Adaptive is set.
	Reps int
	// Adaptive, if non-nil, replaces the fixed Reps with CI-targeted
	// sequential stopping: per-point replication counts then vary
	// between Adaptive.MinReps and Adaptive.MaxReps.
	Adaptive *AdaptiveOptions
	// Workers caps the shared worker pool; 0 or less means GOMAXPROCS.
	// The worker count never affects results, only wall-clock time.
	Workers int
	// BaseSeed seeds cell (point, rep) with BaseSeed + point*stride +
	// rep, where stride is Reps for fixed sweeps and Adaptive.MaxReps
	// for adaptive ones (see RepStride). The Seed field of Sim is
	// ignored.
	BaseSeed int64
	// Sim holds the per-run simulation options (Horizon or MaxStarts
	// must be set, exactly as for sim.Run).
	Sim sim.Options
	// Metrics are evaluated against each cell's statistics and
	// summarized per point across its replications. For non-simulation
	// backends the Eval hooks are ignored: the backend resolves each
	// metric by Name (see NamedMetric).
	Metrics []Metric
	// Backend selects the per-cell engine; nil means SimBackend (the
	// stochastic simulator, byte-identical to the pre-backend driver).
	// Deterministic backends require Reps == 1 and no Adaptive.
	Backend Backend
	// Build constructs the net for one grid point. It is called once
	// per point, serially and in point order, before any simulation
	// starts; the returned net must be immutable for the sweep's
	// lifetime (workers share it).
	Build func(Point) (*petri.Net, error)
	// OnCell, if non-nil, is called once per completed cell with the
	// cell's grid point and replication index. Calls are serialized and
	// in cell order within each pool invocation — the same in-order
	// streaming discipline the distributed cell emit uses — so progress
	// reporting (pnut-sweep -progress, the server's SSE feed) observes
	// cells in the deterministic grid order. The hook must not retain
	// the Point's slices past the call and runs on the emit path:
	// blocking in it stalls result streaming, never correctness. It
	// cannot change a result byte.
	OnCell func(pt Point, rep int)
}

// NumPoints returns the number of grid points (the product of the axis
// sizes; 1 for zero axes).
func (o *SweepOptions) NumPoints() int {
	n := 1
	for _, ax := range o.Axes {
		n *= len(ax.Values)
	}
	return n
}

// RepStride is the replication capacity per point: the second dimension
// of the flat cell grid and the seed stride between points. It is Reps
// for fixed sweeps and Adaptive.MaxReps for adaptive ones — so an
// adaptive cell's seed never depends on when other points stop.
func (o *SweepOptions) RepStride() int {
	if o.Adaptive != nil {
		return o.Adaptive.MaxReps
	}
	return o.Reps
}

// NumCells returns the capacity of the flat (point, replication) cell
// grid — the unit a distributed shard plan partitions. An adaptive
// sweep addresses this grid but only runs each point's prefix of it.
func (o *SweepOptions) NumCells() int { return o.NumPoints() * o.RepStride() }

// PoolSize returns the number of goroutines a run of the given number
// of cells uses: Workers, or GOMAXPROCS when Workers is 0 or less,
// capped at cells.
func (o *SweepOptions) PoolSize(cells int) int {
	w := o.Workers
	if w <= 0 {
		w = defaultWorkers()
	}
	if w > cells {
		w = cells
	}
	return w
}

// point expands grid index idx (row-major, last axis fastest) into a
// Point with its own backing arrays.
func (o *SweepOptions) point(idx int) Point {
	pt := Point{
		Index:  idx,
		Names:  make([]string, len(o.Axes)),
		Values: make([]float64, len(o.Axes)),
	}
	rem := idx
	for i := len(o.Axes) - 1; i >= 0; i-- {
		ax := o.Axes[i]
		pt.Names[i] = ax.Name
		pt.Values[i] = ax.Values[rem%len(ax.Values)]
		rem /= len(ax.Values)
	}
	return pt
}

// Validate checks the sweep's shape: positive Reps, a Build hook, and
// well-formed axes. Exported so planners (package dist) can reject a
// bad grid before any process is spawned.
func (o *SweepOptions) Validate() error {
	if a := o.Adaptive; a != nil {
		if a.MinReps < 2 {
			return fmt.Errorf("experiment: adaptive MinReps must be at least 2 (one replication has no CI), got %d", a.MinReps)
		}
		if a.MaxReps < a.MinReps {
			return fmt.Errorf("experiment: adaptive MaxReps %d is below MinReps %d", a.MaxReps, a.MinReps)
		}
		if a.Batch < 1 {
			return fmt.Errorf("experiment: adaptive Batch must be at least 1, got %d", a.Batch)
		}
		if !(a.RelCI > 0) || math.IsInf(a.RelCI, 1) {
			return fmt.Errorf("experiment: adaptive RelCI must be positive and finite, got %g", a.RelCI)
		}
		found := false
		names := make([]string, len(o.Metrics))
		for i := range o.Metrics {
			names[i] = o.Metrics[i].Name
			found = found || names[i] == a.Metric
		}
		if !found {
			return fmt.Errorf("experiment: adaptive metric %q is not among the sweep metrics %v", a.Metric, names)
		}
	} else if o.Reps < 1 {
		return fmt.Errorf("experiment: sweep Reps must be at least 1, got %d", o.Reps)
	}
	if o.Build == nil {
		return fmt.Errorf("experiment: sweep needs a Build hook")
	}
	if b := o.backend(); b.Deterministic() {
		if o.Adaptive != nil {
			return fmt.Errorf("experiment: the %s engine is deterministic; adaptive replication needs a stochastic engine", b.Engine())
		}
		if o.Reps != 1 {
			return fmt.Errorf("experiment: the %s engine is deterministic; Reps must be 1, got %d", b.Engine(), o.Reps)
		}
	}
	// Minting a worker validates the metric set against the backend
	// eagerly (name resolution, CTL parsing, Eval presence), so a bad
	// metric fails here — before planners spawn processes or pools
	// schedule cells.
	if _, err := o.backend().NewWorker(o); err != nil {
		return err
	}
	seen := make(map[string]bool, len(o.Axes))
	for i, ax := range o.Axes {
		if ax.Name == "" {
			return fmt.Errorf("experiment: axis %d has no name", i)
		}
		if seen[ax.Name] {
			return fmt.Errorf("experiment: duplicate axis %q", ax.Name)
		}
		seen[ax.Name] = true
		if len(ax.Values) == 0 {
			return fmt.Errorf("experiment: axis %q has no values", ax.Name)
		}
	}
	// NumPoints and NumCells multiply unchecked: a product that wraps
	// would admit a huge grid as a small or empty one.
	points := 1
	for _, ax := range o.Axes {
		if points > math.MaxInt/len(ax.Values) {
			return fmt.Errorf("experiment: the grid's point count overflows int")
		}
		points *= len(ax.Values)
	}
	if points > math.MaxInt/o.RepStride() {
		return fmt.Errorf("experiment: the grid's %d points times %d replications overflow int", points, o.RepStride())
	}
	return nil
}

// PointResult is the outcome of one grid point: an R-replication
// experiment, merged deterministically.
type PointResult struct {
	Point Point
	// Reps is the number of replications this point ran: the sweep's
	// fixed Reps, or — adaptively — wherever the stopping rule landed
	// between MinReps and MaxReps.
	Reps int
	// Pooled holds the point's statistics merged in replication order.
	Pooled *stats.Stats
	// Summaries holds one cross-replication summary per metric, in
	// SweepOptions.Metrics order.
	Summaries []stats.Summary
	// Values holds per-replication metric values, Values[m][r] being
	// metric m of replication r.
	Values [][]float64
	// Runs holds each replication's run summary.
	Runs []sim.Result
}

// SweepResult is the outcome of a whole sweep.
type SweepResult struct {
	// Axes echoes the grid shape; Points holds one result per grid
	// point in row-major order (the last axis varies fastest).
	Axes   []Axis
	Points []PointResult
	// Reps and Workers echo the effective sweep shape; for an adaptive
	// sweep Reps is the per-point cap (Adaptive.MaxReps) and each
	// point's actual count is in its PointResult.
	Reps    int
	Workers int
	// Adaptive echoes the stopping rule of an adaptive sweep (nil for
	// fixed-replication sweeps); TotalReps is the total number of
	// replications run across all points — the quantity adaptive
	// stopping minimizes.
	Adaptive  *AdaptiveOptions
	TotalReps int
	// Elapsed is the wall-clock time of the whole sweep; Events is the
	// total number of firings completed across all cells.
	Elapsed time.Duration
	Events  int64

	names []string // metric names, parallel to each point's Summaries
}

// MetricNames returns the metric names, in SweepOptions.Metrics order.
func (r *SweepResult) MetricNames() []string {
	return append([]string(nil), r.names...)
}

// ParseAxis parses the textual axis form used by the sweep CLIs. Each
// comma-separated element is either a single value or an inclusive
// range lo:hi:step, so big distributed grids don't need 50-value lists:
//
//	MemoryCycles=1,5,12
//	DHitRatio=0:1:0.1
//	MemoryCycles=1:5:1,12          (forms mix freely)
//	Depth=10:2:-2                  (descending: negative step)
//
// Range endpoints are inclusive up to a small floating-point tolerance;
// values are computed as lo + i*step (no error accumulation). Every
// value must be finite: NaN and ±Inf are rejected.
func ParseAxis(s string) (Axis, error) {
	name, list, ok := strings.Cut(s, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" {
		return Axis{}, fmt.Errorf("experiment: axis %q is not name=v1,v2,... or name=lo:hi:step", s)
	}
	if strings.TrimSpace(list) == "" {
		return Axis{}, fmt.Errorf("experiment: axis %q has no values", name)
	}
	ax := Axis{Name: name}
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return Axis{}, fmt.Errorf("experiment: axis %q has an empty value (trailing or doubled comma?)", name)
		}
		if strings.Contains(part, ":") {
			vals, err := expandRange(name, part, maxAxisValues-len(ax.Values))
			if err != nil {
				return Axis{}, err
			}
			ax.Values = append(ax.Values, vals...)
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return Axis{}, fmt.Errorf("experiment: axis %q: bad value %q", name, part)
		}
		ax.Values = append(ax.Values, v)
	}
	return ax, nil
}

// maxAxisValues caps the values an axis's lo:hi:step ranges expand to,
// counted over the whole axis so that a short spec cannot allocate
// more: an axis bigger than this is almost certainly a typo'd step.
const maxAxisValues = 1_000_000

// expandRange expands one inclusive lo:hi:step element of an axis spec
// into fewer than room values.
func expandRange(name, part string, room int) ([]float64, error) {
	fields := strings.Split(part, ":")
	if len(fields) != 3 {
		return nil, fmt.Errorf("experiment: axis %q: range %q is not lo:hi:step", name, part)
	}
	var lo, hi, step float64
	for i, dst := range []*float64{&lo, &hi, &step} {
		v, err := strconv.ParseFloat(strings.TrimSpace(fields[i]), 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("experiment: axis %q: range %q: bad value %q", name, part, fields[i])
		}
		*dst = v
	}
	if step == 0 {
		return nil, fmt.Errorf("experiment: axis %q: range %q has step 0", name, part)
	}
	if (hi-lo)/step < 0 {
		return nil, fmt.Errorf("experiment: axis %q: range %q: step moves away from hi", name, part)
	}
	// Inclusive endpoint with a small tolerance: 0:1:0.1 must yield 11
	// values even though 10*0.1 overshoots 1 in binary. Compare as
	// float before converting so a huge count cannot overflow int.
	count := (hi-lo)/step + 1e-9
	if !(count < float64(room)) {
		return nil, fmt.Errorf("experiment: axis %q: range %q expands the axis to over %d values", name, part, maxAxisValues)
	}
	n := int(count)
	vals := make([]float64, 0, n+1)
	for i := 0; i <= n; i++ {
		vals = append(vals, lo+float64(i)*step)
	}
	// Clamp the endpoint: lo+n*step can overshoot hi by an ulp (e.g.
	// 0:0.7:0.1 lands on 0.7000000000000001 > 0.7), which would make a
	// range axis disagree with the equivalent explicit list in every
	// table, CSV and journal meta. If the last value is within a step
	// tolerance of hi, it *is* hi.
	if last := &vals[len(vals)-1]; *last != hi && math.Abs(*last-hi) <= math.Abs(step)*1e-6 {
		*last = hi
	}
	return vals, nil
}

// Sweep expands opt.Axes into a grid, runs Reps replications of every
// point through one shared worker pool, and merges per-point results.
// Every number in the result is bit-for-bit independent of the worker
// count.
//
// ctx cancels the sweep: the shared pool stops claiming cells,
// in-flight runs stop at their next scheduler batch, and ctx's error
// is returned. The distributed coordinator relies on this to abandon
// local shards when a sibling worker process dies instead of hanging
// the pool; pass context.Background() when cancellation is not needed.
//
// The sweep is one shard spanning the whole grid followed by the same
// deterministic assembly a distributed run ends with, so the in-process
// and multi-process paths cannot drift apart.
func Sweep(ctx context.Context, opt SweepOptions) (*SweepResult, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	var (
		recs []CellRecord
		err  error
	)
	if opt.Adaptive != nil {
		recs, err = runAdaptiveCells(ctx, opt)
	} else {
		recs, err = RunCellsContext(ctx, opt, 0, opt.NumCells(), nil)
	}
	if err != nil {
		return nil, err
	}
	r, err := AssembleSweep(opt, recs)
	if err != nil {
		return nil, err
	}
	r.Workers = opt.PoolSize(opt.NumCells())
	r.Elapsed = time.Since(start)
	return r, nil
}

func formatG(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteTable renders the sweep as an aligned text table: one row per
// grid point, one column per axis, then "mean ±ci95" per metric. An
// adaptive sweep adds an "n" column (the point's replication count)
// after the axes.
func (r *SweepResult) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, ax := range r.Axes {
		fmt.Fprintf(tw, "%s\t", ax.Name)
	}
	if r.Adaptive != nil {
		fmt.Fprintf(tw, "n\t")
	}
	for _, n := range r.names {
		fmt.Fprintf(tw, "%s\t", n)
	}
	fmt.Fprintln(tw)
	for _, pt := range r.Points {
		for _, v := range pt.Point.Values {
			fmt.Fprintf(tw, "%s\t", formatG(v))
		}
		if r.Adaptive != nil {
			fmt.Fprintf(tw, "%d\t", pt.Reps)
		}
		for _, s := range pt.Summaries {
			fmt.Fprintf(tw, "%.4f ±%.4f\t", s.Mean, s.CI95)
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// WriteCSV renders the sweep as CSV: one row per grid point, one
// column per axis, then mean/ci95/stddev columns per metric. Floats
// print with full precision, so equal results encode to equal bytes —
// the determinism tests compare sweeps through this encoding.
func (r *SweepResult) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	head := make([]string, 0, len(r.Axes)+1+3*len(r.names))
	for _, ax := range r.Axes {
		head = append(head, ax.Name)
	}
	if r.Adaptive != nil {
		head = append(head, "n")
	}
	for _, n := range r.names {
		head = append(head, n+" mean", n+" ci95", n+" sd")
	}
	if err := cw.Write(head); err != nil {
		return err
	}
	row := make([]string, 0, cap(head))
	for _, pt := range r.Points {
		row = row[:0]
		for _, v := range pt.Point.Values {
			row = append(row, formatG(v))
		}
		if r.Adaptive != nil {
			row = append(row, strconv.Itoa(pt.Reps))
		}
		for _, s := range pt.Summaries {
			row = append(row, formatG(s.Mean), formatG(s.CI95), formatG(s.StdDev))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
