package query

// The row-per-state sequence, its builder and the map-bound
// tree-walking evaluator, kept as the oracle the compiled columnar
// evaluator is checked against. Do not optimize: these are the
// reference semantics of Section 4.4 queries.

import (
	"fmt"

	"repro/internal/petri"
	"repro/internal/trace"
)

// rowState is one state of a trace: the marking and the concurrent-firing
// counts after applying some prefix of the trace records.
type rowState struct {
	// Index is the state number; #0 is the initial state.
	Index int
	// Time is the simulation clock at which the state was entered.
	Time petri.Time
	// Marking holds tokens per place.
	Marking petri.Marking
	// Active holds concurrent firings per transition.
	Active []int
}

// rowSeq is the full state sequence of a trace, as consumed by queries and
// by Tracertool.
type rowSeq struct {
	Header trace.Header
	States []rowState
	// FinalTime is the clock at the end of the run (from the Final
	// record), which may exceed the time of the last state.
	FinalTime petri.Time
}

// Len returns the number of states.
func (q *rowSeq) Len() int { return len(q.States) }

// Value resolves name in state st: place token count or transition
// concurrent-firing count.
func (q *rowSeq) Value(name string, st *rowState) (int64, bool) {
	if id, ok := q.Header.PlaceID(name); ok {
		return int64(st.Marking[id]), true
	}
	if id, ok := q.Header.TransID(name); ok {
		return int64(st.Active[id]), true
	}
	return 0, false
}

// KnownName reports whether name denotes a place or transition.
func (q *rowSeq) KnownName(name string) bool {
	if _, ok := q.Header.PlaceID(name); ok {
		return true
	}
	_, ok := q.Header.TransID(name)
	return ok
}

// rowBuilder accumulates a rowSeq from a record stream; it implements
// trace.Observer so it can be driven directly by the simulator or by
// trace.Copy from a stored trace.
type rowBuilder struct {
	seq     rowSeq
	marking petri.Marking
	active  []int
	started bool
}

// newRowBuilder returns a sequence builder for traces described by h.
func newRowBuilder(h trace.Header) *rowBuilder {
	return &rowBuilder{
		seq:    rowSeq{Header: h},
		active: make([]int, len(h.Trans)),
	}
}

// Record implements trace.Observer.
func (b *rowBuilder) Record(rec *trace.Record) error {
	switch rec.Kind {
	case trace.Initial:
		if len(rec.Marking) != len(b.seq.Header.Places) {
			return fmt.Errorf("query: initial marking has %d places, header has %d",
				len(rec.Marking), len(b.seq.Header.Places))
		}
		b.marking = rec.Marking.Clone()
		b.started = true
		b.push(rec.Time)
	case trace.Start, trace.End:
		if !b.started {
			return fmt.Errorf("query: trace event before initial state")
		}
		for _, d := range rec.Deltas {
			if int(d.Place) >= len(b.marking) {
				return fmt.Errorf("query: delta for unknown place %d", d.Place)
			}
			b.marking[d.Place] += d.Change
		}
		if int(rec.Trans) >= len(b.active) {
			return fmt.Errorf("query: event for unknown transition %d", rec.Trans)
		}
		if rec.Kind == trace.Start {
			b.active[rec.Trans]++
		} else {
			b.active[rec.Trans]--
		}
		b.push(rec.Time)
	case trace.Final:
		b.seq.FinalTime = rec.Time
	default:
		return fmt.Errorf("query: unknown record kind %q", rec.Kind)
	}
	return nil
}

func (b *rowBuilder) push(t petri.Time) {
	st := rowState{
		Index:   len(b.seq.States),
		Time:    t,
		Marking: b.marking.Clone(),
		Active:  append([]int(nil), b.active...),
	}
	b.seq.States = append(b.seq.States, st)
}

// Seq returns the accumulated sequence.
func (b *rowBuilder) Seq() *rowSeq {
	if b.seq.FinalTime == 0 && len(b.seq.States) > 0 {
		b.seq.FinalTime = b.seq.States[len(b.seq.States)-1].Time
	}
	return &b.seq
}

// rowEnv binds state variables to state indices during evaluation.
type rowEnv struct {
	seq  *rowSeq
	vars map[string]int
}

func (e *rowEnv) bind(name string, idx int) func() {
	old, had := e.vars[name]
	e.vars[name] = idx
	return func() {
		if had {
			e.vars[name] = old
		} else {
			delete(e.vars, name)
		}
	}
}

func (e *rowEnv) lookup(name string) (int, error) {
	idx, ok := e.vars[name]
	if !ok {
		return 0, fmt.Errorf("query: unbound state variable %q", name)
	}
	return idx, nil
}

// rowEval runs the query against a state sequence.
func rowEval(q *Query, seq *rowSeq) (Result, error) {
	e := &rowEnv{seq: seq, vars: make(map[string]int)}
	include, err := rowEvalSet(q.set, e)
	if err != nil {
		return Result{}, err
	}
	res := Result{Witness: -1}
	for i := range seq.States {
		if !include[i] {
			continue
		}
		res.Checked++
		undo := e.bind(q.Var, i)
		v, err := rowEvalPexpr(q.body, e)
		undo()
		if err != nil {
			return Result{}, err
		}
		holds := v != 0
		if q.Quant == Forall && !holds {
			res.Holds = false
			res.Witness = i
			return res, nil
		}
		if q.Quant == Exists && holds {
			res.Holds = true
			res.Witness = i
			return res, nil
		}
	}
	res.Holds = q.Quant == Forall
	return res, nil
}

// rowEvalSet computes the membership vector of a set expression.
func rowEvalSet(s setExpr, e *rowEnv) ([]bool, error) {
	n := len(e.seq.States)
	switch s := s.(type) {
	case setAll:
		inc := make([]bool, n)
		for i := range inc {
			inc[i] = true
		}
		return inc, nil
	case setDiff:
		inc, err := rowEvalSet(s.base, e)
		if err != nil {
			return nil, err
		}
		for _, r := range s.refs {
			if r >= 0 && r < n {
				inc[r] = false
			}
		}
		return inc, nil
	case setComp:
		inc, err := rowEvalSet(s.base, e)
		if err != nil {
			return nil, err
		}
		for i := range inc {
			if !inc[i] {
				continue
			}
			undo := e.bind(s.v, i)
			v, err := rowEvalPexpr(s.pred, e)
			undo()
			if err != nil {
				return nil, err
			}
			inc[i] = v != 0
		}
		return inc, nil
	}
	return nil, fmt.Errorf("query: unknown set expression %T", s)
}

func rowB2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func rowEvalPexpr(p pexpr, e *rowEnv) (int64, error) {
	switch p := p.(type) {
	case pInt:
		return p.v, nil
	case pApply:
		idx, err := e.lookup(p.sv)
		if err != nil {
			return 0, err
		}
		v, ok := e.seq.Value(p.name, &e.seq.States[idx])
		if !ok {
			return 0, fmt.Errorf("query: %q is neither a place nor a transition", p.name)
		}
		return v, nil
	case pTime:
		idx, err := e.lookup(p.sv)
		if err != nil {
			return 0, err
		}
		return int64(e.seq.States[idx].Time), nil
	case pIndex:
		idx, err := e.lookup(p.sv)
		if err != nil {
			return 0, err
		}
		return int64(e.seq.States[idx].Index), nil
	case pDur:
		idx, err := e.lookup(p.sv)
		if err != nil {
			return 0, err
		}
		cur := e.seq.States[idx].Time
		if idx+1 < len(e.seq.States) {
			return int64(e.seq.States[idx+1].Time - cur), nil
		}
		return int64(e.seq.FinalTime - cur), nil
	case pInev:
		return rowEvalInev(p, e)
	case pUnary:
		v, err := rowEvalPexpr(p.x, e)
		if err != nil {
			return 0, err
		}
		if p.op == tBang {
			return rowB2i(v == 0), nil
		}
		return -v, nil
	case pBinary:
		l, err := rowEvalPexpr(p.l, e)
		if err != nil {
			return 0, err
		}
		switch p.op {
		case tAnd:
			if l == 0 {
				return 0, nil
			}
			r, err := rowEvalPexpr(p.r, e)
			if err != nil {
				return 0, err
			}
			return rowB2i(r != 0), nil
		case tOr:
			if l != 0 {
				return 1, nil
			}
			r, err := rowEvalPexpr(p.r, e)
			if err != nil {
				return 0, err
			}
			return rowB2i(r != 0), nil
		}
		r, err := rowEvalPexpr(p.r, e)
		if err != nil {
			return 0, err
		}
		switch p.op {
		case tPlus:
			return l + r, nil
		case tMinus:
			return l - r, nil
		case tStar:
			return l * r, nil
		case tSlash:
			if r == 0 {
				return 0, fmt.Errorf("query: division by zero")
			}
			return l / r, nil
		case tEQ:
			return rowB2i(l == r), nil
		case tNE:
			return rowB2i(l != r), nil
		case tLT:
			return rowB2i(l < r), nil
		case tLE:
			return rowB2i(l <= r), nil
		case tGT:
			return rowB2i(l > r), nil
		case tGE:
			return rowB2i(l >= r), nil
		}
	}
	return 0, fmt.Errorf("query: unknown expression %T", p)
}

// rowEvalInev implements the linear-trace reading of the paper's temporal
// operator: from the state bound to p.sv, scanning forward (inclusive),
// f must eventually hold, with g holding at every earlier scanned state.
// Within f and g the variable C names the scanned state.
func rowEvalInev(p pInev, e *rowEnv) (int64, error) {
	start, err := e.lookup(p.sv)
	if err != nil {
		return 0, err
	}
	for j := start; j < len(e.seq.States); j++ {
		undo := e.bind("C", j)
		fv, err := rowEvalPexpr(p.f, e)
		if err != nil {
			undo()
			return 0, err
		}
		if fv != 0 {
			undo()
			return 1, nil
		}
		gv, err := rowEvalPexpr(p.g, e)
		undo()
		if err != nil {
			return 0, err
		}
		if gv == 0 {
			return 0, nil
		}
	}
	return 0, nil
}
