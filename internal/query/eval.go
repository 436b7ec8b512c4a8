package query

import (
	"errors"
	"fmt"
	"math"
)

// Result reports the verdict of a query over a trace.
type Result struct {
	// Holds is the truth value of the query.
	Holds bool
	// Witness is the index of the decisive state: for a failed forall,
	// the first violating state; for a successful exists, the first
	// satisfying state. -1 when no single state is decisive.
	Witness int
	// Checked counts the states the quantifier ranged over.
	Checked int
}

// Eval compiles the query against seq's header and runs it over seq.
func (q *Query) Eval(seq *Seq) (Result, error) {
	c := &compiler{seq: seq}
	set := c.set(q.set)
	slot := c.bind(q.Var)
	body, _ := c.pexpr(q.body)
	c.frame = make([]int, c.slots)

	include, err := set()
	if err != nil {
		return Result{}, err
	}
	res := Result{Witness: -1}
	for i, in := range include {
		if !in {
			continue
		}
		res.Checked++
		c.frame[slot] = i
		v, err := body()
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

// Check is a convenience that parses and evaluates src in one call.
func Check(seq *Seq, src string) (Result, error) {
	q, err := Parse(src)
	if err != nil {
		return Result{}, err
	}
	return q.Eval(seq)
}

// fn is a compiled expression; it reads the state indices bound in the
// compiler's frame.
type fn func() (int64, error)

// binding maps a state variable to its frame slot.
type binding struct {
	name string
	slot int
}

// compiler turns a query into closures over one Seq. State variables
// resolve lexically: each binder (the quantifier, a comprehension, an
// inev's C) gets its own frame slot, allocated before its scope is
// compiled, so every slot an expression can read from an enclosing
// scope is lower than the slots bound inside it.
type compiler struct {
	seq   *Seq
	scope []binding
	slots int
	frame []int // sized once compilation is done; closures read it lazily
}

// noSlot is the lowest slot read by an expression that reads none.
const noSlot = math.MaxInt

var errDivZero = errors.New("query: division by zero")

func (c *compiler) bind(name string) int {
	c.scope = append(c.scope, binding{name, c.slots})
	c.slots++
	return c.slots - 1
}

func (c *compiler) unbind() { c.scope = c.scope[:len(c.scope)-1] }

func (c *compiler) lookup(name string) (int, error) {
	for i := len(c.scope) - 1; i >= 0; i-- {
		if c.scope[i].name == name {
			return c.scope[i].slot, nil
		}
	}
	return 0, fmt.Errorf("query: unbound state variable %q", name)
}

func fail(err error) fn { return func() (int64, error) { return 0, err } }

// set compiles a set expression to a function computing its membership
// vector.
func (c *compiler) set(s setExpr) func() ([]bool, error) {
	n := c.seq.Len()
	switch s := s.(type) {
	case setAll:
		return func() ([]bool, error) {
			inc := make([]bool, n)
			for i := range inc {
				inc[i] = true
			}
			return inc, nil
		}
	case setDiff:
		base := c.set(s.base)
		return func() ([]bool, error) {
			inc, err := base()
			if err != nil {
				return nil, err
			}
			for _, r := range s.refs {
				if r >= 0 && r < n {
					inc[r] = false
				}
			}
			return inc, nil
		}
	case setComp:
		base := c.set(s.base)
		slot := c.bind(s.v)
		pred, _ := c.pexpr(s.pred)
		c.unbind()
		return func() ([]bool, error) {
			inc, err := base()
			if err != nil {
				return nil, err
			}
			for i := range inc {
				if !inc[i] {
					continue
				}
				c.frame[slot] = i
				v, err := pred()
				if err != nil {
					return nil, err
				}
				inc[i] = v != 0
			}
			return inc, nil
		}
	}
	err := fmt.Errorf("query: unknown set expression %T", s)
	return func() ([]bool, error) { return nil, err }
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// pexpr compiles p in the current scope. It also returns the lowest
// frame slot the compiled expression reads (noSlot if none).
func (c *compiler) pexpr(p pexpr) (fn, int) {
	switch p := p.(type) {
	case pInt:
		v := p.v
		return func() (int64, error) { return v, nil }, noSlot
	case pApply:
		slot, err := c.lookup(p.sv)
		if err != nil {
			return fail(err), noSlot
		}
		col, ok := c.seq.Column(p.name)
		if !ok {
			return fail(fmt.Errorf("query: %q is neither a place nor a transition", p.name)), noSlot
		}
		return func() (int64, error) { return int64(col[c.frame[slot]]), nil }, slot
	case pTime:
		slot, err := c.lookup(p.sv)
		if err != nil {
			return fail(err), noSlot
		}
		times := c.seq.times
		return func() (int64, error) { return times.at(c.frame[slot]), nil }, slot
	case pIndex:
		slot, err := c.lookup(p.sv)
		if err != nil {
			return fail(err), noSlot
		}
		return func() (int64, error) { return int64(c.frame[slot]), nil }, slot
	case pDur:
		slot, err := c.lookup(p.sv)
		if err != nil {
			return fail(err), noSlot
		}
		times, n, final := c.seq.times, c.seq.Len(), c.seq.FinalTime
		return func() (int64, error) {
			idx := c.frame[slot]
			if idx+1 < n {
				return times.at(idx+1) - times.at(idx), nil
			}
			return final - times.at(idx), nil
		}, slot
	case pInev:
		return c.inev(p)
	case pUnary:
		x, lo := c.pexpr(p.x)
		if p.op == tBang {
			return func() (int64, error) {
				v, err := x()
				return b2i(v == 0), err
			}, lo
		}
		return func() (int64, error) {
			v, err := x()
			return -v, err
		}, lo
	case pBinary:
		l, llo := c.pexpr(p.l)
		r, rlo := c.pexpr(p.r)
		return binary(p.op, l, r), min(llo, rlo)
	}
	return fail(fmt.Errorf("query: unknown expression %T", p)), noSlot
}

// binary compiles l op r. Both operands are evaluated left to right,
// except that && and || skip r once l decides the result.
func binary(op tokKind, l, r fn) fn {
	switch op {
	case tAnd:
		return func() (int64, error) {
			v, err := l()
			if err != nil || v == 0 {
				return 0, err
			}
			w, err := r()
			return b2i(w != 0), err
		}
	case tOr:
		return func() (int64, error) {
			v, err := l()
			if err != nil {
				return 0, err
			}
			if v != 0 {
				return 1, nil
			}
			w, err := r()
			return b2i(w != 0), err
		}
	}
	return func() (int64, error) {
		v, err := l()
		if err != nil {
			return 0, err
		}
		w, err := r()
		if err != nil {
			return 0, err
		}
		return arith(op, v, w)
	}
}

func arith(op tokKind, v, w int64) (int64, error) {
	switch op {
	case tPlus:
		return v + w, nil
	case tMinus:
		return v - w, nil
	case tStar:
		return v * w, nil
	case tSlash:
		if w == 0 {
			return 0, errDivZero
		}
		return v / w, nil
	case tEQ:
		return b2i(v == w), nil
	case tNE:
		return b2i(v != w), nil
	case tLT:
		return b2i(v < w), nil
	case tLE:
		return b2i(v <= w), nil
	case tGT:
		return b2i(v > w), nil
	case tGE:
		return b2i(v >= w), nil
	}
	panic(fmt.Sprintf("query: unknown binary operator %d", op))
}

// inev compiles the linear-trace reading of the paper's temporal
// operator: from the state bound to p.sv, scanning forward (inclusive),
// f must eventually hold, with g holding at every earlier scanned state.
// Within f and g the variable C names the scanned state.
//
// When f and g read no slot but their own C, the answer from state j
// does not depend on the enclosing bindings, so it is tabulated for
// every j by one backward pass, R[j] = f(j) ? 1 : g(j) ? R[j+1] : 0, on
// first use in an Eval. An error f or g raises at j is stored as R[j]
// and propagates back exactly as far as the forward scan would carry it.
func (c *compiler) inev(p pInev) (fn, int) {
	start, err := c.lookup(p.sv)
	if err != nil {
		return fail(err), noSlot
	}
	cs := c.bind("C")
	f, flo := c.pexpr(p.f)
	g, glo := c.pexpr(p.g)
	c.unbind()
	n := c.seq.Len()

	if min(flo, glo) < cs {
		return func() (int64, error) {
			for j := c.frame[start]; j < n; j++ {
				c.frame[cs] = j
				fv, err := f()
				if err != nil {
					return 0, err
				}
				if fv != 0 {
					return 1, nil
				}
				gv, err := g()
				if err != nil {
					return 0, err
				}
				if gv == 0 {
					return 0, nil
				}
			}
			return 0, nil
		}, min(start, flo, glo)
	}

	// tab[j] is 0 or 1, or 2+k for errs[k]; tab[n] is the 0 past the end.
	var tab []int32
	var errs []error
	code := func(err error) int32 {
		if len(errs) == 0 || errs[len(errs)-1] != err {
			errs = append(errs, err)
		}
		return int32(len(errs) + 1)
	}
	return func() (int64, error) {
		if tab == nil {
			tab = make([]int32, n+1)
			for j := n - 1; j >= 0; j-- {
				c.frame[cs] = j
				if fv, err := f(); err != nil {
					tab[j] = code(err)
				} else if fv != 0 {
					tab[j] = 1
				} else if gv, err := g(); err != nil {
					tab[j] = code(err)
				} else if gv != 0 {
					tab[j] = tab[j+1]
				}
			}
		}
		v := tab[c.frame[start]]
		if v >= 2 {
			return 0, errs[v-2]
		}
		return int64(v), nil
	}, start
}
