package lang

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/term"
)

func TestLexBasics(t *testing.T) {
	toks, err := Lex("bcast ; scan(+) ; map pi_1")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	wantKinds := []TokenKind{
		TokIdent, TokSemi, TokIdent, TokLParen, TokOp, TokRParen,
		TokSemi, TokIdent, TokIdent, TokEOF,
	}
	if len(kinds) != len(wantKinds) {
		t.Fatalf("token kinds = %v (texts %v)", kinds, texts)
	}
	for i := range wantKinds {
		if kinds[i] != wantKinds[i] {
			t.Fatalf("token %d = %v %q, want %v", i, kinds[i], texts[i], wantKinds[i])
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := Lex("bcast # the broadcast\n; scan(+)")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "bcast" || toks[1].Kind != TokSemi {
		t.Fatalf("tokens = %v", toks)
	}
}

func TestLexPositions(t *testing.T) {
	toks, err := Lex("bcast ;\n  scan(+)")
	if err != nil {
		t.Fatal(err)
	}
	// "scan" is on line 2, column 3.
	var scan Token
	for _, tok := range toks {
		if tok.Text == "scan" {
			scan = tok
		}
	}
	if scan.Line != 2 || scan.Col != 3 {
		t.Fatalf("scan at %d:%d, want 2:3", scan.Line, scan.Col)
	}
}

func TestLexRejectsGarbage(t *testing.T) {
	_, err := Lex("scan(@)")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "@") {
		t.Fatalf("error = %v", err)
	}
}

func TestParseExampleProgram(t *testing.T) {
	prog, err := Parse("scan(+) ; reduce(*) ; bcast", nil)
	if err != nil {
		t.Fatal(err)
	}
	stages := term.Stages(prog)
	if len(stages) != 3 {
		t.Fatalf("stages = %v", stages)
	}
	if s, ok := stages[0].(term.Scan); !ok || s.Op != algebra.Add {
		t.Fatalf("stage 0 = %v", stages[0])
	}
	if r, ok := stages[1].(term.Reduce); !ok || r.Op != algebra.Mul || r.All {
		t.Fatalf("stage 1 = %v", stages[1])
	}
	if _, ok := stages[2].(term.Bcast); !ok {
		t.Fatalf("stage 2 = %v", stages[2])
	}
}

func TestParseAllReduceAndMaps(t *testing.T) {
	prog, err := Parse("map pair ; allreduce(max) ; map pi_1", nil)
	if err != nil {
		t.Fatal(err)
	}
	stages := term.Stages(prog)
	if m, ok := stages[0].(term.Map); !ok || m.F != term.PairFn {
		t.Fatalf("stage 0 = %v", stages[0])
	}
	if r, ok := stages[1].(term.Reduce); !ok || !r.All || r.Op != algebra.Max {
		t.Fatalf("stage 1 = %v", stages[1])
	}
	if m, ok := stages[2].(term.Map); !ok || m.F != term.FirstFn {
		t.Fatalf("stage 2 = %v", stages[2])
	}
}

func TestParseRoundTripsThroughString(t *testing.T) {
	srcs := []string{
		"bcast",
		"scan(+)",
		"bcast ; scan(+)",
		"scan(*) ; reduce(+)",
		"map pair ; allreduce(min) ; map pi_1",
		"bcast ; scan(*) ; scan(+) ; reduce(max)",
	}
	for _, src := range srcs {
		prog, err := Parse(src, nil)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if got := prog.String(); got != src {
			t.Fatalf("round trip %q -> %q", src, got)
		}
		again, err := Parse(prog.String(), nil)
		if err != nil {
			t.Fatalf("re-parse %q: %v", prog, err)
		}
		if !term.EqualTerms(prog, again) {
			t.Fatalf("%q re-parses differently", src)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		src     string
		wantSub string
	}{
		{"", "expected identifier"},
		{"scan", "expected '('"},
		{"scan(+", "expected ')'"},
		{"scan()", "expected an operator name"},
		{"scan(bogus)", "unknown operator"},
		{"map bogus", "unknown map function"},
		{"frobnicate", "unknown stage"},
		{"bcast scan(+)", "expected end of input"},
		{"bcast ;; scan(+)", "expected identifier"},
		{"map", "expected identifier"},
		// The whole source is lexed before parsing: a bad character late
		// outranks a parse error early.
		{"scan(+ ; bcast @", "1:16: unexpected character '@'"},
	}
	for _, c := range cases {
		_, err := Parse(c.src, nil)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error containing %q", c.src, c.wantSub)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("Parse(%q) error = %v, want substring %q", c.src, err, c.wantSub)
		}
	}
}

func TestParseErrorPositions(t *testing.T) {
	_, err := Parse("bcast ;\nscan(bogus)", nil)
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.HasPrefix(err.Error(), "2:6:") {
		t.Fatalf("error = %v, want position 2:6", err)
	}
}

func TestCustomSymbols(t *testing.T) {
	syms := NewSymbols()
	xor := algebra.NewBase("xor", func(x, y float64) float64 {
		return float64(int64(x) ^ int64(y))
	})
	syms.DefineOp(xor)
	double := &term.Fn{Name: "double", Cost: 1, F: func(v algebra.Value) algebra.Value {
		return algebra.Add.Apply(v, v)
	}}
	syms.DefineFn(double)
	prog, err := Parse("map double ; scan(xor)", syms)
	if err != nil {
		t.Fatal(err)
	}
	stages := term.Stages(prog)
	if s, ok := stages[1].(term.Scan); !ok || s.Op != xor {
		t.Fatalf("stage 1 = %v", stages[1])
	}
}

func TestTokenKindStrings(t *testing.T) {
	for k := TokEOF; k <= TokComma; k++ {
		if s := k.String(); s == "" || strings.HasPrefix(s, "TokenKind(") {
			t.Errorf("kind %d has string %q", int(k), s)
		}
	}
	if s := TokenKind(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown kind = %q", s)
	}
}

func TestParseGatherScatter(t *testing.T) {
	prog, err := Parse("gather ; scatter ; scan(+)", nil)
	if err != nil {
		t.Fatal(err)
	}
	stages := term.Stages(prog)
	if _, ok := stages[0].(term.Gather); !ok {
		t.Fatalf("stage 0 = %v", stages[0])
	}
	if _, ok := stages[1].(term.Scatter); !ok {
		t.Fatalf("stage 1 = %v", stages[1])
	}
	if got := prog.String(); got != "gather ; scatter ; scan(+)" {
		t.Fatalf("round trip = %q", got)
	}
}
