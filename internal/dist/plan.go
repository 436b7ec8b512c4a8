// Package dist executes a parameter sweep across OS processes with the
// same bit-for-bit determinism guarantee the in-process driver gives
// for any goroutine count.
//
// The unit of distribution is the sweep's flat (point, replication)
// cell grid (see experiment.RunCellsContext): a shard is a contiguous,
// point-major span of cells, so a shard typically owns whole points and
// reuses one engine per point, exactly like the in-process pool. Cell
// c always runs with seed BaseSeed + c in whichever process executes
// it, and the coordinator reassembles complete record sets in cell
// order — so shard count, worker processes per machine and goroutines
// per worker all change wall-clock time only, never a single output
// byte.
//
// Workers are plain commands ("pnut-sweep -spec - -cells lo:hi -emit
// cells") that read the job as one JSON document on stdin and write
// the versioned JSONL cell-record stream on stdout; the command is
// configurable, so a "machine" is just an ssh or container prefix. The coordinator journals records as they arrive,
// and a re-run against the same journal re-dispatches only the missing
// cells — with output identical to a run that never failed.
package dist

import "repro/internal/experiment"

// Span is a contiguous range of grid cells [Lo, Hi). It is the
// experiment package's CellSpan: shard plans, adaptive pending sets and
// worker spans are all the same currency.
type Span = experiment.CellSpan

// PlanShards partitions a grid of cells into at most shards contiguous
// point-major spans of near-equal size (sizes differ by at most one
// cell). Fewer spans are returned when there are fewer cells than
// shards; shards < 1 is treated as 1.
func PlanShards(cells, shards int) []Span {
	if cells <= 0 {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	if shards > cells {
		shards = cells
	}
	spans := make([]Span, shards)
	for i := 0; i < shards; i++ {
		spans[i] = Span{Lo: i * cells / shards, Hi: (i + 1) * cells / shards}
	}
	return spans
}

// missingWithin collects the undelivered sub-spans of s — the salvage
// set of a failed dispatch attempt. Cells outside s are never
// reported, so a retry can only shrink toward the cells the dying
// worker actually owed.
func missingWithin(s Span, have func(cell int) bool) []Span {
	return experiment.MissingCellSpans(s.Hi, func(c int) bool { return c < s.Lo || have(c) })
}

// planUnits subdivides the missing spans into dispatch units so that
// roughly shards workers get balanced work: each span is split
// proportionally to its share of the missing cells. A fresh run (one
// span covering the whole grid) degenerates to exactly
// PlanShards(cells, shards).
func planUnits(spans []Span, shards int) []Span {
	if shards < 1 {
		shards = 1
	}
	total := 0
	for _, s := range spans {
		total += s.Size()
	}
	if total == 0 {
		return nil
	}
	var units []Span
	for _, s := range spans {
		n := (s.Size()*shards + total/2) / total // proportional share, rounded
		if n < 1 {
			n = 1
		}
		for _, sub := range PlanShards(s.Size(), n) {
			units = append(units, Span{Lo: s.Lo + sub.Lo, Hi: s.Lo + sub.Hi})
		}
	}
	return units
}
