package trace

import "fmt"

// Filter passes a reduced trace downstream: deltas are kept only for
// selected places, and Start/End records only for selected transitions
// (or when they still carry a kept delta, since a kept place's marking
// must stay reconstructible). Records left with no content are dropped.
// Initial and Final records always pass; the initial marking is zeroed
// for dropped places so that downstream marking arithmetic stays
// consistent with the filtered deltas.
//
// This is the P-NUT filtering tool of Section 4.1: "usually only a
// handful of places and transitions are of interest in performing a
// particular analysis".
//
// The filter reuses one output record and its delta storage for every
// record it passes, so filtering allocates per trace, not per record.
type Filter struct {
	Next      Observer
	keepPlace []bool
	keepTrans []bool
	out       Record
	deltas    []Delta
}

// NewFilter builds a filter over traces described by h keeping the named
// places and transitions. Unknown names are reported as errors so that a
// typo cannot silently produce an empty analysis.
func NewFilter(h Header, next Observer, places, transitions []string) (*Filter, error) {
	f := &Filter{
		Next:      next,
		keepPlace: make([]bool, len(h.Places)),
		keepTrans: make([]bool, len(h.Trans)),
	}
	for _, name := range places {
		id, ok := h.PlaceID(name)
		if !ok {
			return nil, fmt.Errorf("trace: filter keeps unknown place %q", name)
		}
		f.keepPlace[id] = true
	}
	for _, name := range transitions {
		id, ok := h.TransID(name)
		if !ok {
			return nil, fmt.Errorf("trace: filter keeps unknown transition %q", name)
		}
		f.keepTrans[id] = true
	}
	return f, nil
}

// Keep returns the filter's keep sets, indexed by place and transition
// id. A ColReader feeding this filter can pass them to Skip so blocks
// the filter would fully drop are never decoded.
func (f *Filter) Keep() (places, transitions []bool) {
	return f.keepPlace, f.keepTrans
}

// Record implements Observer.
func (f *Filter) Record(rec *Record) error {
	switch rec.Kind {
	case Initial:
		m := rec.Marking.Clone()
		for i := range m {
			if !f.keepPlace[i] {
				m[i] = 0
			}
		}
		f.out = *rec
		f.out.Marking = m
		return f.Next.Record(&f.out)
	case Final:
		return f.Next.Record(rec)
	case Start, End:
		deltas := f.deltas[:0]
		for _, d := range rec.Deltas {
			if f.keepPlace[d.Place] {
				deltas = append(deltas, d)
			}
		}
		f.deltas = deltas
		if !f.keepTrans[rec.Trans] && len(deltas) == 0 {
			return nil
		}
		f.out = *rec
		f.out.Deltas = deltas
		return f.Next.Record(&f.out)
	}
	return fmt.Errorf("trace: filter saw unknown record kind %q", rec.Kind)
}
