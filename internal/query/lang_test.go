package query

import (
	"strings"
	"testing"

	"repro/internal/petri"
)

func TestLexerTokens(t *testing.T) {
	toks, err := lex("forall s in (S - {#0, #2}) [ a(s) >= 1 && !b(s) || c(s) != 2 * 3 / 1 ]")
	if err != nil {
		t.Fatal(err)
	}
	if toks[len(toks)-1].kind != tEOF {
		t.Error("missing EOF token")
	}
	var kinds []tokKind
	for _, tok := range toks {
		kinds = append(kinds, tok.kind)
	}
	// Spot-check a few positions.
	if kinds[0] != tIdent || kinds[3] != tLParen || kinds[5] != tMinus || kinds[6] != tLBrace {
		t.Errorf("token stream: %v", kinds)
	}
}

func TestLexerErrors(t *testing.T) {
	for _, src := range []string{"$", "a & b", "`", "99999999999999999999"} {
		if _, err := lex(src); err == nil {
			t.Errorf("lex %q should fail", src)
		}
	}
}

func TestTokenString(t *testing.T) {
	toks, err := lex("abc 42 <=")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(toks[0].String(), "abc") {
		t.Errorf("ident token string: %s", toks[0])
	}
	if !strings.Contains(toks[1].String(), "42") {
		t.Errorf("int token string: %s", toks[1])
	}
	eof := toks[len(toks)-1]
	if eof.String() != "end of query" {
		t.Errorf("eof token string: %s", eof)
	}
}

func TestParseSetForms(t *testing.T) {
	good := []string{
		"forall s in S [ 1 ]",
		"forall s in (S) [ 1 ]",
		"forall s in ((S - {#1}) - {#2, #3}) [ 1 ]",
		"forall s in {x in S | 1} [ 1 ]",
		"forall s in {x in {y in S | 1} | 1} [ 1 ]",
		"Exists s in S [ 0 ]",
	}
	for _, src := range good {
		if _, err := Parse(src); err != nil {
			t.Errorf("parse %q: %v", src, err)
		}
	}
	bad := []string{
		"forall s in {x S | 1} [ 1 ]",
		"forall s in {x in S 1} [ 1 ]",
		"forall s in (S - {#}) [ 1 ]",
		"forall s in (S - 0) [ 1 ]",
		"forall s in S - {#0 [ 1 ]",
		"forall s in S [ time(3) ]",
		"forall s in S [ inev(s, 1, 1, 1) ]",
	}
	for _, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("parse %q should fail", src)
		}
	}
}

func TestOutOfRangeStateRefsIgnored(t *testing.T) {
	// Two states.
	seq := tableSeq([]string{"p"}, []string{"t"}, [][]int{{0, 0}, {1, 0}})
	// Excluding #99 is harmless.
	res, err := Check(seq, "exists s in (S - {#99}) [ p(s) == 1 ]")
	if err != nil || !res.Holds {
		t.Errorf("res=%+v err=%v", res, err)
	}
}

func TestArithmeticInQueries(t *testing.T) {
	seq := tableSeq([]string{"p", "q"}, []string{"t"}, [][]int{{6, 2, 1}})
	cases := []struct {
		src  string
		want bool
	}{
		{"exists s in S [ p(s) - q(s) == 4 ]", true},
		{"exists s in S [ p(s) * q(s) == 12 ]", true},
		{"exists s in S [ p(s) / q(s) == 3 ]", true},
		{"exists s in S [ -q(s) == -2 ]", true},
		{"exists s in S [ !t(s) ]", false},
		{"exists s in S [ t(s) == 1 && (p(s) > 5 || q(s) > 5) ]", true},
		{"forall s in S [ index(s) == 0 ]", true},
	}
	for _, c := range cases {
		res, err := Check(seq, c.src)
		if err != nil {
			t.Errorf("%q: %v", c.src, err)
			continue
		}
		if res.Holds != c.want {
			t.Errorf("%q = %v, want %v", c.src, res.Holds, c.want)
		}
	}
}

func TestUnboundVariableInComprehension(t *testing.T) {
	seq := tableSeq([]string{"p"}, []string{"t"}, [][]int{{1, 0}})
	// The comprehension variable goes out of scope in the body.
	if _, err := Check(seq, "forall s in {x in S | p(x) > 0} [ p(x) > 0 ]"); err == nil {
		t.Error("out-of-scope variable accepted")
	}
}

// tableSeq lays out a Seq, all of whose states are at time 0, from rows
// of place values followed by transition values, one row per state. It
// can express states no record stream reaches, such as a transition
// already firing in state #0. It takes at most chunkSize rows.
func tableSeq(places, trans []string, rows [][]int) *Seq {
	n := len(rows)
	seq := &Seq{times: chunks[petri.Time]{[][]petri.Time{make([]petri.Time, n)}, n}, cols: make([][]int, len(places)+len(trans))}
	seq.Header.Places = places
	seq.Header.Trans = trans
	for c := range seq.cols {
		seq.cols[c] = make([]int, n)
	}
	for i, row := range rows {
		for c, v := range row {
			seq.cols[c][i] = v
		}
	}
	return seq
}
