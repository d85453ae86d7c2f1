package cost

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/term"
)

func rounds(n, startups, words, ops float64) Line { return Line{n, startups, words, ops} }

// The three TestLinForm tests are Line's: a Line is the linear form
// a·ts + b·m·tw + c·m, and these names are older than the type.

func TestLinFormArithmetic(t *testing.T) {
	a := rounds(1, 2, 2, 3)
	b := rounds(1, 1, 2, 3)
	if d := a.Add(b.Scale(-1)); d != rounds(1, 1, 0, 0) {
		t.Fatalf("a − b = %+v", d)
	}
	if s := a.Add(b); s != rounds(1, 3, 4, 6) {
		t.Fatalf("Add = %+v", s)
	}
	// Scale repeats the line; Add multiplies differing round counts in.
	if s := a.Scale(2); s != rounds(2, 2, 2, 3) || (Line{}).Add(s) != rounds(1, 4, 4, 6) {
		t.Fatalf("Scale = %+v", s)
	}
	if s := rounds(3, 1, 8, 8).Add(local(5)); s != rounds(1, 3, 24, 29) {
		t.Fatalf("3 rounds + local = %+v", s)
	}
	// A butterfly scan on four ranks, two words: 4 messages, then 2 in
	// the one-way last round; 1.5 combines per rank, round and word.
	if path, work := ScanLine(Params{P: 4, M: 2}); path != rounds(2, 1, 2, 4) || work != rounds(1, 6, 12, 24) {
		t.Fatalf("ScanLine = %+v | %+v", path, work)
	}
}

func TestLinFormEval(t *testing.T) {
	l := rounds(1, 2, 2, 3)
	p := Params{Ts: 100, Tw: 2, M: 10, P: 8}
	// Read as counts: 2·100 + 2·2 + 3.
	if got := l.At(p); got != 207 {
		t.Fatalf("At = %g", got)
	}
	// Read per round and per word: 2·100 + 2·10·2 + 3·10 = 270, ×log p = 3.
	if got := l.over(p).At(p); got != 810 {
		t.Fatalf("over(p).At = %g", got)
	}
}

func TestLinFormString(t *testing.T) {
	cases := []struct {
		l    Line
		want string
	}{
		{rounds(1, 2, 2, 3), "2ts + m(2tw + 3)"},
		{rounds(1, 1, 2, 6), "ts + m(2tw + 6)"},
		{local(1), "m"},
		{local(3), "3m"},
		{rounds(1, 1, 1, 0), "ts + m(tw)"},
		{Line{}, "0"},
		{rounds(1, 1, -1, -4), "ts + m(-tw - 4)"},
		{rounds(2, 1, 1, 0.25), "2ts + m(2tw + 1/2)"},
	}
	for _, c := range cases {
		if got := c.l.String(); got != c.want {
			t.Errorf("%+v.String() = %q, want %q", c.l, got, c.want)
		}
	}
}

// TestDerivedConditionsMatchPaper reproduces the "Improved if" column
// from the printed coefficients alone, and checks each solved predicate
// against the sign of the difference it was solved from.
func TestDerivedConditionsMatchPaper(t *testing.T) {
	cases := []struct {
		rule          string
		before, after Line
		want          string
	}{
		{"SR2-Reduction", rounds(1, 2, 2, 3), rounds(1, 1, 2, 3), "always"},
		{"SR-Reduction", rounds(1, 2, 2, 3), rounds(1, 1, 2, 4), "ts > m"},
		{"SS2-Scan", rounds(1, 2, 2, 4), rounds(1, 1, 2, 6), "ts > 2m"},
		{"SS-Scan", rounds(1, 2, 2, 4), rounds(1, 1, 3, 8), "ts > m(tw+4)"},
		{"BS-Comcast", rounds(1, 2, 2, 2), rounds(1, 1, 1, 2), "always"},
		{"BSS2-Comcast", rounds(1, 3, 3, 4), rounds(1, 1, 1, 5), "tw + ts/m > 1/2"},
		{"BSS-Comcast", rounds(1, 3, 3, 4), rounds(1, 1, 1, 8), "tw + ts/m > 2"},
		{"BR-Local", rounds(1, 2, 2, 1), local(1), "always"},
		{"BSR2-Local", rounds(1, 3, 3, 3), local(3), "always"},
		{"BSR-Local", rounds(1, 3, 3, 3), local(4), "tw + ts/m >= 1/3"},
		{"CR-AllLocal", rounds(1, 2, 2, 1), rounds(1, 1, 1, 1), "always"},
		// Not in the paper: a ratio other than one, and a local
		// right-hand side in the ts-shape.
		{"r=2", rounds(1, 3, 2, 0), rounds(1, 1, 1, 3), "tw + 2·ts/m > 3"},
		{"local ts-shape", rounds(1, 2, 0, 1), local(3), "ts >= m"},
	}
	for _, c := range cases {
		text, holds := DeriveCondition(c.before, c.after)
		if text != c.want {
			t.Errorf("%s: derived %q, want %q", c.rule, text, c.want)
		}
		for _, ts := range []float64{1, 13, 130, 1300, 13000} {
			for _, tw := range []float64{0.25, 1, 3} {
				for _, m := range []int{1, 9, 99, 999, 29999} {
					p := Params{Ts: ts, Tw: tw, M: m, P: 64}
					diff := c.before.over(p).At(p) - c.after.over(p).At(p)
					if got := holds(p); got != (diff > 0) && diff != 0 {
						t.Errorf("%s at %+v: %q holds=%v, before − after = %g", c.rule, p, text, got, diff)
					}
				}
			}
		}
	}
}

func TestDeriveConditionEdgeCases(t *testing.T) {
	any := Params{Ts: 3, Tw: 2, M: 5, P: 8}
	text, holds := DeriveCondition(rounds(1, 1, 0, 0), rounds(1, 1, 0, 0))
	if text != "never (equal cost)" || holds(any) {
		t.Fatalf("equal cost: %q", text)
	}
	text, holds = DeriveCondition(rounds(1, 1, 0, 0), rounds(1, 2, 0, 0))
	if text != "never" || holds(any) {
		t.Fatalf("strictly worse: %q", text)
	}
	text, holds = DeriveCondition(rounds(1, 2, 0, 1), rounds(1, 1, 0, 0))
	if text != "always" || !holds(any) {
		t.Fatalf("strictly better: %q", text)
	}
	// A mixed form that matches no paper pattern falls back to "diff > 0":
	// fewer words for more start-ups, 4·tw·m > ts.
	text, holds = DeriveCondition(rounds(1, 1, 5, 0), rounds(1, 2, 1, 0))
	if text != "-ts + m(4tw) > 0" || !holds(any) || holds(Params{Ts: 100, Tw: 2, M: 5, P: 8}) {
		t.Fatalf("fallback: %q", text)
	}
}

func TestSymbolicOfTermRejectsCostedMap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f := &term.Fn{Name: "f", Cost: 2}
	SymbolicOfTerm(term.Map{F: f})
}

// TestSymbolicOfTermRejectsRedistribution: a gather's p·m words and a
// scatter's m are not per-log-p counts either.
func TestSymbolicOfTermRejectsRedistribution(t *testing.T) {
	for _, tm := range []term.Term{term.Gather{}, term.Scatter{}, term.Seq{term.Gather{}, term.Scatter{}}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", tm)
				}
			}()
			SymbolicOfTerm(tm)
		}()
	}
}

// TestSymbolicAgreesWithOfTerm cross-checks the symbolic estimator
// against the numeric one on rule-shaped terms.
func TestSymbolicAgreesWithOfTerm(t *testing.T) {
	terms := []term.Term{
		term.Seq{term.Bcast{}, term.Scan{Op: algebra.Add}},
		term.Seq{term.Scan{Op: algebra.Mul}, term.Reduce{Op: algebra.Add}},
		term.Seq{term.Comcast{Ops: algebra.OpCompBSS(algebra.Add)}},
		term.Seq{term.Iter{Op: algebra.OpBSR(algebra.Add)}, term.Bcast{}},
	}
	p := Params{Ts: 777, Tw: 3, M: 42, P: 16}
	for _, tm := range terms {
		sym := SymbolicOfTerm(tm).over(p).At(p)
		num := OfTerm(tm, p)
		if sym != num {
			t.Errorf("%s: symbolic %g vs numeric %g", tm, sym, num)
		}
	}
}
