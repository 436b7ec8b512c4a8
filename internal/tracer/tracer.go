// Package tracer is the P-NUT Tracertool (Section 4.4): a software
// logic state analyzer for simulation traces, plus the trace
// verification front end.
//
// As with a hardware logic state analyzer, the user selects "probes" —
// places, transitions, or arbitrary user-defined functions of them — and
// gets their values plotted over time. Markers can be positioned in the
// trace (at a given time, or at the first state satisfying a trigger
// expression, like an analyzer's trigger condition) and the tool
// measures the time between markers.
//
// Figure 7 of the paper shows the canonical use: Bus_busy on the first
// line, broken down into pre-fetching / fetching / storing on the next
// three, the five execution transitions, a user-defined function summing
// them, and the number of empty instruction-buffer slots over time.
//
// Verification queries (forall/exists/inev) are delegated to package
// query; Verify is a thin convenience wrapper.
package tracer

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/expr"
	"repro/internal/petri"
	"repro/internal/query"
)

// Signal is one plotted probe.
type Signal struct {
	Label string
	// values per state index (parallel to the Seq).
	values []int64
	max    int64
}

// Marker is a named position in the trace.
type Marker struct {
	Name  string
	Time  petri.Time
	State int // index of the state at or after Time; -1 if past the end
}

// Tracer plots signals from a state sequence.
type Tracer struct {
	seq     *query.Seq
	signals []*Signal
	markers []Marker
}

// New returns a tracer over seq.
func New(seq *query.Seq) *Tracer {
	return &Tracer{seq: seq}
}

// Seq returns the underlying state sequence.
func (t *Tracer) Seq() *query.Seq { return t.seq }

// AddPlace probes the token count of a place.
func (t *Tracer) AddPlace(name string) error {
	id, ok := t.seq.Header.PlaceID(name)
	if !ok {
		return fmt.Errorf("tracer: unknown place %q", name)
	}
	t.addColumn(name, t.seq.Place(id))
	return nil
}

// AddTransition probes the concurrent-firing count of a transition.
func (t *Tracer) AddTransition(name string) error {
	id, ok := t.seq.Header.TransID(name)
	if !ok {
		return fmt.Errorf("tracer: unknown transition %q", name)
	}
	t.addColumn(name, t.seq.Trans(id))
	return nil
}

// addColumn probes a copy of a Seq column.
func (t *Tracer) addColumn(label string, col []int) {
	s := &Signal{Label: label, values: make([]int64, len(col))}
	for i, v := range col {
		s.values[i] = int64(v)
	}
	t.finish(s)
}

// AddFunc probes a user-defined function: an expression over place and
// transition names, evaluated in every state. This is the paper's
// "arbitrary functions (using a simple programming language) on places
// and transitions" — e.g.
//
//	exec_type_1 + exec_type_2 + exec_type_3 + exec_type_4 + exec_type_5
func (t *Tracer) AddFunc(label, src string) error {
	e, err := expr.ParseExpr(src)
	if err != nil {
		return fmt.Errorf("tracer: function %q: %w", label, err)
	}
	// Validate names eagerly so typos fail loudly.
	for _, n := range expr.Names(e) {
		if !t.seq.KnownName(n) {
			return fmt.Errorf("tracer: function %q refers to unknown name %q", label, n)
		}
	}
	s := &Signal{Label: label}
	s.values = make([]int64, t.seq.Len())
	env, i := t.stateEnv(e)
	for *i = range s.values {
		v, err := e.Eval(env)
		if err != nil {
			return fmt.Errorf("tracer: function %q at state %d: %w", label, *i, err)
		}
		s.values[*i] = v
	}
	t.finish(s)
	return nil
}

// stateEnv returns an environment in which e's place and transition
// names read their values in the state whose index is stored at the
// returned pointer. Each name is resolved to its column once, here.
func (t *Tracer) stateEnv(e expr.Expr) (*expr.Env, *int) {
	cols := make(map[string][]int)
	for _, n := range expr.Names(e) {
		if col, ok := t.seq.Column(n); ok {
			cols[n] = col
		}
	}
	i := new(int)
	env := expr.NewEnv(nil)
	env.External = func(name string) (int64, bool) {
		col, ok := cols[name]
		if !ok {
			return 0, false
		}
		return int64(col[*i]), true
	}
	return env, i
}

func (t *Tracer) finish(s *Signal) {
	for _, v := range s.values {
		if v > s.max {
			s.max = v
		}
	}
	t.signals = append(t.signals, s)
}

// Signals returns the probes added so far.
func (t *Tracer) Signals() []*Signal { return t.signals }

// stateAt returns the index of the last state entered at or before time
// tm (the value visible at tm), or -1 before the first state.
func (t *Tracer) stateAt(tm petri.Time) int {
	// First state with Time > tm, minus one.
	return sort.Search(t.seq.Len(), func(i int) bool { return t.seq.Time(i) > tm }) - 1
}

// MarkAt places a named marker at an absolute time.
func (t *Tracer) MarkAt(name string, tm petri.Time) {
	t.markers = append(t.markers, Marker{Name: name, Time: tm, State: t.stateAt(tm)})
}

// MarkWhen places a marker at the first state (at or after time from)
// satisfying the trigger expression — the analyzer's trigger condition.
// It returns the marker, or an error if the trigger never fires.
func (t *Tracer) MarkWhen(name, src string, from petri.Time) (Marker, error) {
	e, err := expr.ParseExpr(src)
	if err != nil {
		return Marker{}, fmt.Errorf("tracer: trigger %q: %w", src, err)
	}
	env, i := t.stateEnv(e)
	for *i = 0; *i < t.seq.Len(); *i++ {
		tm := t.seq.Time(*i)
		if tm < from {
			continue
		}
		v, err := e.Eval(env)
		if err != nil {
			return Marker{}, fmt.Errorf("tracer: trigger %q at state %d: %w", src, *i, err)
		}
		if v != 0 {
			m := Marker{Name: name, Time: tm, State: *i}
			t.markers = append(t.markers, m)
			return m, nil
		}
	}
	return Marker{}, fmt.Errorf("tracer: trigger %q never fired", src)
}

// Markers returns the markers placed so far.
func (t *Tracer) Markers() []Marker { return t.markers }

// Measure returns the time between two named markers (b - a), the
// analyzer's cursor-delta readout ("O <-> X  48" in Figure 7).
func (t *Tracer) Measure(a, b string) (petri.Time, error) {
	var ma, mb *Marker
	for i := range t.markers {
		switch t.markers[i].Name {
		case a:
			ma = &t.markers[i]
		case b:
			mb = &t.markers[i]
		}
	}
	if ma == nil {
		return 0, fmt.Errorf("tracer: unknown marker %q", a)
	}
	if mb == nil {
		return 0, fmt.Errorf("tracer: unknown marker %q", b)
	}
	return mb.Time - ma.Time, nil
}

// Verify parses and evaluates a Section 4.4 query against the trace.
func (t *Tracer) Verify(src string) (query.Result, error) {
	return query.Check(t.seq, src)
}

// RenderOptions control the timing diagram.
type RenderOptions struct {
	// From and To bound the plotted window; To=0 means the end of the
	// run.
	From, To petri.Time
	// Width is the number of plot columns (default 72).
	Width int
	// Unicode selects block-character waveforms; the default uses pure
	// ASCII (digits for levels, '_' for zero).
	Unicode bool
}

const asciiLevels = "_123456789abcdef"

var unicodeLevels = []rune{'▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'}

// Render draws every signal over the window as one row per signal, with
// a time axis and a marker row, in the manner of Figure 7.
func (t *Tracer) Render(o RenderOptions) string {
	if o.Width <= 0 {
		o.Width = 72
	}
	if o.To <= o.From {
		o.To = t.seq.FinalTime
		if o.To <= o.From {
			o.To = o.From + 1
		}
	}
	span := o.To - o.From
	colTime := func(c int) petri.Time {
		return o.From + petri.Time(float64(c)*float64(span)/float64(o.Width))
	}
	labelW := 10
	for _, s := range t.signals {
		if len(s.Label) > labelW {
			labelW = len(s.Label)
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Tracertool: %s  window [%d, %d]  width %d\n", t.seq.Header.Net, o.From, o.To, o.Width)

	// Marker row.
	if len(t.markers) > 0 {
		row := make([]byte, o.Width)
		for i := range row {
			row[i] = ' '
		}
		for _, m := range t.markers {
			if m.Time < o.From || m.Time > o.To {
				continue
			}
			c := int(float64(m.Time-o.From) * float64(o.Width) / float64(span))
			if c >= o.Width {
				c = o.Width - 1
			}
			row[c] = m.Name[0]
		}
		fmt.Fprintf(&b, "%*s |%s|\n", labelW, "markers", string(row))
	}

	for _, s := range t.signals {
		fmt.Fprintf(&b, "%*s |", labelW, s.Label)
		si := 0
		for c := 0; c < o.Width; c++ {
			tm := colTime(c)
			for si < t.seq.Len()-1 && t.seq.Time(si+1) <= tm {
				si++
			}
			var v int64
			if si < t.seq.Len() && t.seq.Time(si) <= tm {
				v = s.values[si]
			}
			b.WriteString(levelChar(v, s.max, o.Unicode))
		}
		b.WriteString("|\n")
	}

	// Time axis.
	fmt.Fprintf(&b, "%*s |", labelW, "t")
	step := o.Width / 6
	if step < 1 {
		step = 1
	}
	axis := make([]byte, 0, o.Width)
	for c := 0; c < o.Width; {
		if c%step == 0 {
			lbl := fmt.Sprintf("%d", colTime(c))
			if c+len(lbl) <= o.Width {
				axis = append(axis, lbl...)
				c += len(lbl)
				continue
			}
		}
		axis = append(axis, ' ')
		c++
	}
	b.Write(axis)
	b.WriteString("|\n")

	// Cursor measurements for every marker pair, in placement order.
	for i := 0; i+1 < len(t.markers); i++ {
		a, z := t.markers[i], t.markers[i+1]
		fmt.Fprintf(&b, "%s <-> %s  %d\n", a.Name, z.Name, z.Time-a.Time)
	}
	return b.String()
}

func levelChar(v, max int64, unicode bool) string {
	if v <= 0 {
		if unicode {
			return " "
		}
		return "_"
	}
	if unicode {
		idx := int((v*int64(len(unicodeLevels)) - 1) / maxInt64(max, 1))
		if idx >= len(unicodeLevels) {
			idx = len(unicodeLevels) - 1
		}
		if idx < 0 {
			idx = 0
		}
		return string(unicodeLevels[idx])
	}
	if max <= 1 {
		return "#"
	}
	if v < int64(len(asciiLevels)) {
		return string(asciiLevels[v])
	}
	return "+"
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// Figure7 builds the paper's standard probe set over a pipeline trace:
// Bus_busy, its three-way activity breakdown, the five execution
// transitions, their sum as a user-defined function, and the free
// instruction-buffer slots. It returns an error if the trace is not of
// the pipeline model (missing names).
func Figure7(seq *query.Seq) (*Tracer, error) {
	t := New(seq)
	if err := t.AddPlace("Bus_busy"); err != nil {
		return nil, err
	}
	for _, p := range []string{"pre_fetching", "fetching", "storing"} {
		if err := t.AddPlace(p); err != nil {
			return nil, err
		}
	}
	var sum []string
	for i := 1; i <= 5; i++ {
		name := fmt.Sprintf("exec_type_%d", i)
		if err := t.AddTransition(name); err != nil {
			return nil, err
		}
		sum = append(sum, name)
	}
	if err := t.AddFunc("sum_exec", strings.Join(sum, " + ")); err != nil {
		return nil, err
	}
	if err := t.AddPlace("Empty_I_buffers"); err != nil {
		return nil, err
	}
	return t, nil
}
