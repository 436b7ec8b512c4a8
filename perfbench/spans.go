package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run records one span around each call the benchmark makes
// into a module's public functions. Calls too fine-grained to hold a
// span each (one trace record, one statistics update) are timed in
// aggregate and attached to the enclosing span as leaves. Everything
// stays in memory until the run ends; nothing is written while units
// are being timed.

// noSpan is the id of an absent span: the parent of a root span, and
// what every recorder method returns and accepts when tracing is off.
const noSpan = -1

// span is one timed call. Spans of one unit share Unit; Parent links a
// span to the span that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Unit   int    `json:"unit"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Leaves []leaf `json:"leaves,omitempty"`
}

// leaf is the aggregate of many short calls into one layer made from
// inside a span: their summed duration and their count.
type leaf struct {
	Layer string `json:"layer"`
	NS    int64  `json:"ns"`
	Calls int64  `json:"calls"`
}

// recorder collects spans, counters and samples. A nil *recorder is
// the untraced run: every method is a no-op.
type recorder struct {
	origin time.Time

	mu       sync.Mutex
	spans    []span
	counters map[string]float64
	samples  map[string][]float64
}

func newRecorder() *recorder {
	return &recorder{
		origin:   time.Now(),
		counters: make(map[string]float64),
		samples:  make(map[string][]float64),
	}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// begin opens a span and returns its id.
func (r *recorder) begin(unit, parent int, layer, name string) int {
	return r.beginAt(time.Now(), unit, parent, layer, name)
}

// beginAt opens a span that started at t.
func (r *recorder) beginAt(at time.Time, unit, parent int, layer, name string) int {
	if r == nil {
		return noSpan
	}
	t := int64(at.Sub(r.origin))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Unit: unit, Layer: layer, Name: name, Start: t, End: -1})
	return id
}

// end closes a span.
func (r *recorder) end(id int) {
	if r == nil || id == noSpan {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// addLeaf attaches aggregated calls into layer to span id.
func (r *recorder) addLeaf(id int, layer string, ns, calls int64) {
	if r == nil || id == noSpan || calls == 0 {
		return
	}
	r.mu.Lock()
	r.spans[id].Leaves = append(r.spans[id].Leaves, leaf{Layer: layer, NS: ns, Calls: calls})
	r.mu.Unlock()
}

// count adds v to a named counter.
func (r *recorder) count(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

// sample appends one observation to a named sample list.
func (r *recorder) sample(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.samples[name] = append(r.samples[name], v)
	r.mu.Unlock()
}

// spanTotal sums the durations of the closed spans with a given name.
func (r *recorder) spanTotal(name string) (ns int64, n int) {
	for i := range r.spans {
		s := &r.spans[i]
		if s.Name == name && s.End >= 0 {
			ns += s.End - s.Start
			n++
		}
	}
	return ns, n
}

// layerTotal sums the durations of the closed spans of one layer.
func (r *recorder) layerTotal(layer string) int64 {
	var ns int64
	for i := range r.spans {
		s := &r.spans[i]
		if s.Layer == layer && s.End >= 0 {
			ns += s.End - s.Start
		}
	}
	return ns
}

// breakdown is the self-time analysis of a finished recording.
type breakdown struct {
	// selfNS is each layer's self time, summed over the units' spans.
	selfNS map[string]int64
	// units is the number of unit spans; unitNS their summed duration.
	units  int
	unitNS int64
	// coverage is the share of all unit wall time that the spans below
	// the units' root spans account for, the benchmark's own spans
	// (output checks, the load generator's lateness) included;
	// minCoverage is the lowest share of any single unit.
	coverage, minCoverage float64
}

// unitLayer and unitName mark a unit's root span. Its self time is the
// part of the unit no span accounts for.
const (
	unitLayer = "bench"
	unitName  = "unit"
)

// analyze computes per-layer self times within units: a span's
// duration minus the union of its child spans' intervals and minus its
// leaves, with each leaf's time credited to the leaf's layer. Spans of
// concurrent workers each count, so a layer's self time can exceed
// the unit's wall time.
func (r *recorder) analyze() breakdown {
	children := make(map[int][]int)
	for i := range r.spans {
		if p := r.spans[i].Parent; p != noSpan {
			children[p] = append(children[p], i)
		}
	}
	// Spans outside every unit (probes made after a phase) are left
	// out. A parent is always recorded before its children.
	inUnit := make([]bool, len(r.spans))
	for i := range r.spans {
		s := &r.spans[i]
		inUnit[i] = s.Parent == noSpan && s.Layer == unitLayer && s.Name == unitName ||
			s.Parent != noSpan && inUnit[s.Parent]
	}
	b := breakdown{selfNS: make(map[string]int64), minCoverage: 1}
	var covered int64
	for i := range r.spans {
		s := &r.spans[i]
		if s.End < 0 || !inUnit[i] {
			continue
		}
		dur := s.End - s.Start
		busy := unionNS(r.spans, children[i], s.Start, s.End)
		var leafNS int64
		for _, l := range s.Leaves {
			leafNS += l.NS
			b.selfNS[l.Layer] += l.NS
		}
		self := dur - busy - leafNS
		if self < 0 {
			self = 0
		}
		b.selfNS[s.Layer] += self
		if s.Layer == unitLayer && s.Name == unitName && dur > 0 {
			b.units++
			b.unitNS += dur
			covered += dur - self
			if c := float64(dur-self) / float64(dur); c < b.minCoverage {
				b.minCoverage = c
			}
		}
	}
	if b.unitNS > 0 {
		b.coverage = float64(covered) / float64(b.unitNS)
	} else {
		b.minCoverage = 0
	}
	return b
}

// unionNS returns how much of [lo, hi) the given spans cover; spans of
// concurrent workers may overlap, so their durations cannot be summed.
func unionNS(all []span, ids []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(ids))
	for _, id := range ids {
		s := &all[id]
		if s.End < 0 {
			continue
		}
		a, e := max(s.Start, lo), min(s.End, hi)
		if e > a {
			ivs = append(ivs, iv{a, e})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// write stores the spans as JSON lines in dir/name.
func (r *recorder) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("span file: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	return f.Close()
}
