package reach

import (
	"fmt"
	"strings"

	"repro/internal/expr"
	"repro/internal/petri"
)

// Formula is a branching-time temporal-logic formula in the style of
// the [MR87] analyzer. Atoms are integer expressions over place names
// (nonzero = true) or the special proposition deadlock. Path operators:
//
//	EX f, AX f     — some / every successor satisfies f
//	EF f, AF f     — some / every path eventually reaches f
//	EG f, AG f     — some / every path satisfies f globally
//	EU(f,g), AU(f,g) — until
//
// Maximal-path semantics: a deadlock state's only path is itself, so
// AF f and EG f reduce to f there and AX f holds vacuously. The paper's
// "inev" is AF.
type Formula interface {
	// String renders the formula in the surface syntax.
	String() string
	check(g *Graph) []bool
}

// Check evaluates f on every node of g and returns the satisfaction
// vector (indexed by node ID).
func Check(g *Graph, f Formula) []bool { return f.check(g) }

// Holds evaluates f at the initial state (node 0).
func Holds(g *Graph, f Formula) bool {
	if len(g.Nodes) == 0 {
		return true
	}
	return Check(g, f)[0]
}

// --- atoms -------------------------------------------------------------

type atomExpr struct {
	src string
	e   expr.Expr
}

// Atom parses an integer expression over place names, e.g.
// "Bus_free + Bus_busy == 1".
func Atom(src string) (Formula, error) {
	e, err := expr.ParseExpr(src)
	if err != nil {
		return nil, fmt.Errorf("reach: atom %q: %w", src, err)
	}
	return &atomExpr{src: src, e: e}, nil
}

// MustAtom is Atom that panics on error (static formulas in models and
// tests).
func MustAtom(src string) Formula {
	f, err := Atom(src)
	if err != nil {
		panic(err)
	}
	return f
}

func (a *atomExpr) String() string { return "{" + a.src + "}" }

func (a *atomExpr) check(g *Graph) []bool {
	out := make([]bool, len(g.Nodes))
	env := expr.NewEnv(nil)
	var cur petri.Marking
	env.External = func(name string) (int64, bool) {
		id, ok := g.Net.PlaceID(name)
		if !ok {
			return 0, false
		}
		return int64(cur[id]), true
	}
	g.EachMarking(func(i int, m petri.Marking) bool {
		cur = m
		v, err := a.e.Eval(env)
		// Unknown names or arithmetic faults make the atom false
		// everywhere rather than panicking mid-fixpoint; Validate
		// formulas with Atom() for eager errors.
		out[i] = err == nil && v != 0
		return true
	})
	return out
}

type deadlockAtom struct{}

// Deadlock is the proposition "no transition can ever fire again".
func Deadlock() Formula { return deadlockAtom{} }

func (deadlockAtom) String() string { return "deadlock" }

func (deadlockAtom) check(g *Graph) []bool {
	out := make([]bool, len(g.Nodes))
	for i := range out {
		out[i] = g.Deadlocked(i)
	}
	return out
}

// --- boolean connectives ------------------------------------------------

type notF struct{ x Formula }
type andF struct{ l, r Formula }
type orF struct{ l, r Formula }

// Not negates a formula.
func Not(x Formula) Formula { return notF{x} }

// And conjoins formulas.
func And(l, r Formula) Formula { return andF{l, r} }

// Or disjoins formulas.
func Or(l, r Formula) Formula { return orF{l, r} }

func (f notF) String() string { return "!" + f.x.String() }
func (f andF) String() string { return "(" + f.l.String() + " && " + f.r.String() + ")" }
func (f orF) String() string  { return "(" + f.l.String() + " || " + f.r.String() + ")" }

func (f notF) check(g *Graph) []bool {
	v := f.x.check(g)
	out := make([]bool, len(v))
	for i := range v {
		out[i] = !v[i]
	}
	return out
}

func (f andF) check(g *Graph) []bool {
	l, r := f.l.check(g), f.r.check(g)
	out := make([]bool, len(l))
	for i := range l {
		out[i] = l[i] && r[i]
	}
	return out
}

func (f orF) check(g *Graph) []bool {
	l, r := f.l.check(g), f.r.check(g)
	out := make([]bool, len(l))
	for i := range l {
		out[i] = l[i] || r[i]
	}
	return out
}

// --- temporal operators --------------------------------------------------

type exF struct{ x Formula }
type axF struct{ x Formula }
type efF struct{ x Formula }
type afF struct{ x Formula }
type egF struct{ x Formula }
type agF struct{ x Formula }
type euF struct{ l, r Formula }
type auF struct{ l, r Formula }

// EX: some successor satisfies x.
func EX(x Formula) Formula { return exF{x} }

// AX: every successor satisfies x (vacuously true at deadlocks).
func AX(x Formula) Formula { return axF{x} }

// EF: x is reachable.
func EF(x Formula) Formula { return efF{x} }

// AF: x is inevitable — the paper's inev.
func AF(x Formula) Formula { return afF{x} }

// EG: some maximal path satisfies x globally.
func EG(x Formula) Formula { return egF{x} }

// AG: x holds in every reachable state.
func AG(x Formula) Formula { return agF{x} }

// EU: some path satisfies l until r.
func EU(l, r Formula) Formula { return euF{l, r} }

// AU: every path satisfies l until r.
func AU(l, r Formula) Formula { return auF{l, r} }

func (f exF) String() string { return "EX(" + f.x.String() + ")" }
func (f axF) String() string { return "AX(" + f.x.String() + ")" }
func (f efF) String() string { return "EF(" + f.x.String() + ")" }
func (f afF) String() string { return "AF(" + f.x.String() + ")" }
func (f egF) String() string { return "EG(" + f.x.String() + ")" }
func (f agF) String() string { return "AG(" + f.x.String() + ")" }
func (f euF) String() string { return "EU(" + f.l.String() + ", " + f.r.String() + ")" }
func (f auF) String() string { return "AU(" + f.l.String() + ", " + f.r.String() + ")" }

func (f exF) check(g *Graph) []bool {
	x := f.x.check(g)
	out := make([]bool, len(x))
	for i := range out {
		for _, e := range g.Nodes[i].Out {
			if x[e.To] {
				out[i] = true
				break
			}
		}
	}
	return out
}

func (f axF) check(g *Graph) []bool {
	x := f.x.check(g)
	out := make([]bool, len(x))
	for i := range out {
		out[i] = true
		for _, e := range g.Nodes[i].Out {
			if !x[e.To] {
				out[i] = false
				break
			}
		}
	}
	return out
}

// lfp iterates a monotone step function to its least fixed point.
func lfp(init []bool, step func(cur []bool) bool) []bool {
	cur := init
	for step(cur) {
	}
	return cur
}

func (f efF) check(g *Graph) []bool {
	cur := f.x.check(g)
	return lfp(cur, func(cur []bool) bool {
		changed := false
		for i := range cur {
			if cur[i] {
				continue
			}
			for _, e := range g.Nodes[i].Out {
				if cur[e.To] {
					cur[i] = true
					changed = true
					break
				}
			}
		}
		return changed
	})
}

func (f afF) check(g *Graph) []bool {
	cur := f.x.check(g)
	return lfp(cur, func(cur []bool) bool {
		changed := false
		for i := range cur {
			if cur[i] || len(g.Nodes[i].Out) == 0 {
				continue
			}
			all := true
			for _, e := range g.Nodes[i].Out {
				if !cur[e.To] {
					all = false
					break
				}
			}
			if all {
				cur[i] = true
				changed = true
			}
		}
		return changed
	})
}

func (f egF) check(g *Graph) []bool {
	// Greatest fixed point: start from x, remove states with no
	// satisfying continuation (deadlocks keep x: their maximal path ends
	// there).
	cur := f.x.check(g)
	for {
		changed := false
		for i := range cur {
			if !cur[i] || len(g.Nodes[i].Out) == 0 {
				continue
			}
			any := false
			for _, e := range g.Nodes[i].Out {
				if cur[e.To] {
					any = true
					break
				}
			}
			if !any {
				cur[i] = false
				changed = true
			}
		}
		if !changed {
			return cur
		}
	}
}

func (f agF) check(g *Graph) []bool {
	// AG x == !EF !x
	return notF{efF{notF{f.x}}}.check(g)
}

func (f euF) check(g *Graph) []bool {
	l := f.l.check(g)
	cur := f.r.check(g)
	return lfp(cur, func(cur []bool) bool {
		changed := false
		for i := range cur {
			if cur[i] || !l[i] {
				continue
			}
			for _, e := range g.Nodes[i].Out {
				if cur[e.To] {
					cur[i] = true
					changed = true
					break
				}
			}
		}
		return changed
	})
}

func (f auF) check(g *Graph) []bool {
	l := f.l.check(g)
	cur := f.r.check(g)
	return lfp(cur, func(cur []bool) bool {
		changed := false
		for i := range cur {
			if cur[i] || !l[i] || len(g.Nodes[i].Out) == 0 {
				continue
			}
			all := true
			for _, e := range g.Nodes[i].Out {
				if !cur[e.To] {
					all = false
					break
				}
			}
			if all {
				cur[i] = true
				changed = true
			}
		}
		return changed
	})
}

// --- formula parser ------------------------------------------------------

// ParseFormula parses the surface syntax:
//
//	formula := or
//	or      := and ('||' and)*
//	and     := unary ('&&' unary)*
//	unary   := '!' unary | OP '(' formula [',' formula] ')'
//	         | '(' formula ')' | '{' expr '}' | 'deadlock'
//	OP      := AG AF AX EG EF EX EU AU inev
//
// Atoms are expr-language expressions over place names in braces, e.g.
//
//	AG({Bus_free + Bus_busy == 1})
//	AG(EF({Empty_I_buffers == 6}))
//	inev({Bus_free}) — the paper's operator, an alias for AF
func ParseFormula(src string) (Formula, error) {
	p := &fparser{src: src}
	f, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skip()
	if p.pos != len(p.src) {
		return nil, fmt.Errorf("reach: trailing input %q in formula", p.src[p.pos:])
	}
	return f, nil
}

// MustParseFormula panics on error.
func MustParseFormula(src string) Formula {
	f, err := ParseFormula(src)
	if err != nil {
		panic(err)
	}
	return f
}

type fparser struct {
	src string
	pos int
}

func (p *fparser) skip() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *fparser) lit(s string) bool {
	p.skip()
	if strings.HasPrefix(p.src[p.pos:], s) {
		p.pos += len(s)
		return true
	}
	return false
}

func (p *fparser) parseOr() (Formula, error) {
	l, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.lit("||") {
		r, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		l = Or(l, r)
	}
	return l, nil
}

func (p *fparser) parseAnd() (Formula, error) {
	l, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for p.lit("&&") {
		r, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		l = And(l, r)
	}
	return l, nil
}

func (p *fparser) parseUnary() (Formula, error) {
	p.skip()
	if p.lit("!") {
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return Not(x), nil
	}
	unary := map[string]func(Formula) Formula{
		"AG": AG, "AF": AF, "AX": AX, "EG": EG, "EF": EF, "EX": EX, "inev": AF,
	}
	binary := map[string]func(Formula, Formula) Formula{
		"EU": EU, "AU": AU,
	}
	for kw, mk := range binary {
		if p.peekKeyword(kw) {
			p.lit(kw)
			if !p.lit("(") {
				return nil, fmt.Errorf("reach: expected '(' after %s", kw)
			}
			l, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if !p.lit(",") {
				return nil, fmt.Errorf("reach: expected ',' in %s", kw)
			}
			r, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if !p.lit(")") {
				return nil, fmt.Errorf("reach: expected ')' to close %s", kw)
			}
			return mk(l, r), nil
		}
	}
	for kw, mk := range unary {
		if p.peekKeyword(kw) {
			p.lit(kw)
			if !p.lit("(") {
				return nil, fmt.Errorf("reach: expected '(' after %s", kw)
			}
			x, err := p.parseOr()
			if err != nil {
				return nil, err
			}
			if !p.lit(")") {
				return nil, fmt.Errorf("reach: expected ')' to close %s", kw)
			}
			return mk(x), nil
		}
	}
	if p.peekKeyword("deadlock") {
		p.lit("deadlock")
		return Deadlock(), nil
	}
	if p.lit("{") {
		end := strings.IndexByte(p.src[p.pos:], '}')
		if end < 0 {
			return nil, fmt.Errorf("reach: unterminated atom")
		}
		atomSrc := p.src[p.pos : p.pos+end]
		p.pos += end + 1
		return Atom(atomSrc)
	}
	if p.lit("(") {
		f, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		if !p.lit(")") {
			return nil, fmt.Errorf("reach: expected ')'")
		}
		return f, nil
	}
	return nil, fmt.Errorf("reach: expected a formula at %q", p.src[p.pos:])
}

// peekKeyword reports whether the next token is exactly kw followed by a
// non-identifier character.
func (p *fparser) peekKeyword(kw string) bool {
	p.skip()
	rest := p.src[p.pos:]
	if !strings.HasPrefix(rest, kw) {
		return false
	}
	after := rest[len(kw):]
	if after == "" {
		return true
	}
	c := after[0]
	return !(c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9')
}
