package cost_test

import (
	"math"
	"testing"

	"repro/internal/cost"
	"repro/internal/exper"
)

// Table 1 is derived, not stored (cost.EntryOf, assembled by exper.Entry
// where a rule's two sides are at hand), so the paper's printed table
// lives here, as the expectation.

func params(ts, tw float64, m, p int) cost.Params {
	return cost.Params{Ts: ts, Tw: tw, M: m, P: p}
}

func entry(t *testing.T, rule string) cost.Entry {
	t.Helper()
	e, err := exper.Entry(rule)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// paperTable1 is Table 1 as printed — per log p, the coefficients
// (a, b, c) of a·ts + m(b·tw + c) before and after each rule and the
// "Improved if" column — plus CR-AllLocal, which the paper defines in §3.5
// but leaves out of the table, with the same accounting.
var paperTable1 = []struct {
	rule          string
	before, after [3]float64
	condition     string
}{
	{"SR2-Reduction", [3]float64{2, 2, 3}, [3]float64{1, 2, 3}, "always"},
	{"SR-Reduction", [3]float64{2, 2, 3}, [3]float64{1, 2, 4}, "ts > m"},
	{"SS2-Scan", [3]float64{2, 2, 4}, [3]float64{1, 2, 6}, "ts > 2m"},
	{"SS-Scan", [3]float64{2, 2, 4}, [3]float64{1, 3, 8}, "ts > m(tw+4)"},
	{"BS-Comcast", [3]float64{2, 2, 2}, [3]float64{1, 1, 2}, "always"},
	{"BSS2-Comcast", [3]float64{3, 3, 4}, [3]float64{1, 1, 5}, "tw + ts/m > 1/2"},
	{"BSS-Comcast", [3]float64{3, 3, 4}, [3]float64{1, 1, 8}, "tw + ts/m > 2"},
	{"BR-Local", [3]float64{2, 2, 1}, [3]float64{0, 0, 1}, "always"},
	{"BSR2-Local", [3]float64{3, 3, 3}, [3]float64{0, 0, 3}, "always"},
	{"BSR-Local", [3]float64{3, 3, 3}, [3]float64{0, 0, 4}, "tw + ts/m >= 1/3"},
	{"CR-AllLocal", [3]float64{2, 2, 1}, [3]float64{1, 1, 1}, "always"},
}

// TestSymbolicMatchesTable1 holds the derived table to the printed one:
// every row's coefficients before and after and its condition text, with
// each right-hand side taken from the rule engine (exper.RulePair) rather
// than built by hand.
func TestSymbolicMatchesTable1(t *testing.T) {
	coeffs := func(l cost.Line) [3]float64 {
		return [3]float64{l.Rounds * l.Startups, l.Rounds * l.Words, l.Rounds * l.Ops}
	}
	for _, row := range paperTable1 {
		e := entry(t, row.rule)
		if got := coeffs(e.Left); got != row.before {
			t.Errorf("%s before: derived %v (%s), paper %v", row.rule, got, e.Left, row.before)
		}
		if got := coeffs(e.Right); got != row.after {
			t.Errorf("%s after: derived %v (%s), paper %v", row.rule, got, e.Right, row.after)
		}
		if e.Condition != row.condition {
			t.Errorf("%s: derived condition %q, paper %q", row.rule, e.Condition, row.condition)
		}
	}
}

// TestTable1EntriesComplete: exper.Patterns is the one list of rule
// patterns, in the paper's order, and every one of them has a row.
func TestTable1EntriesComplete(t *testing.T) {
	pats := exper.Patterns()
	if len(pats) != len(paperTable1) {
		t.Fatalf("%d patterns, want %d", len(pats), len(paperTable1))
	}
	for i, pat := range pats {
		if pat.Rule != paperTable1[i].rule {
			t.Errorf("pattern %d = %s, want %s", i, pat.Rule, paperTable1[i].rule)
		}
		if e := entry(t, pat.Rule); e.Rule != pat.Rule {
			t.Errorf("entry of %s names %s", pat.Rule, e.Rule)
		}
	}
}

func TestTable1ClosedForms(t *testing.T) {
	// Spot-check the two time columns against the printed table at
	// ts = 100, tw = 2, m = 10, p = 8 (log p = 3).
	p := params(100, 2, 10, 8)
	logp := 3.0
	cases := []struct {
		rule          string
		before, after float64
	}{
		{"SR2-Reduction", logp * (2*100 + 10*(2*2+3)), logp * (100 + 10*(2*2+3))},
		{"SR-Reduction", logp * (2*100 + 10*(2*2+3)), logp * (100 + 10*(2*2+4))},
		{"SS2-Scan", logp * (2*100 + 10*(2*2+4)), logp * (100 + 10*(2*2+6))},
		{"SS-Scan", logp * (2*100 + 10*(2*2+4)), logp * (100 + 10*(3*2+8))},
		{"BS-Comcast", logp * (2*100 + 10*(2*2+2)), logp * (100 + 10*(2+2))},
		{"BSS2-Comcast", logp * (3*100 + 10*(3*2+4)), logp * (100 + 10*(2+5))},
		{"BSS-Comcast", logp * (3*100 + 10*(3*2+4)), logp * (100 + 10*(2+8))},
		{"BR-Local", logp * (2*100 + 10*(2*2+1)), logp * 10},
		{"BSR2-Local", logp * (3*100 + 10*(3*2+3)), logp * 3 * 10},
		{"BSR-Local", logp * (3*100 + 10*(3*2+3)), logp * 4 * 10},
	}
	for _, c := range cases {
		e := entry(t, c.rule)
		if got := e.Before(p); got != c.before {
			t.Errorf("%s before = %g, want %g", c.rule, got, c.before)
		}
		if got := e.After(p); got != c.after {
			t.Errorf("%s after = %g, want %g", c.rule, got, c.after)
		}
	}
}

func TestTable1Conditions(t *testing.T) {
	cases := []struct {
		rule string
		p    cost.Params
		want bool
	}{
		// SR-Reduction: ts > m.
		{"SR-Reduction", params(100, 1, 50, 8), true},
		{"SR-Reduction", params(100, 1, 200, 8), false},
		// SS2-Scan: ts > 2m (§4.2).
		{"SS2-Scan", params(100, 1, 49, 8), true},
		{"SS2-Scan", params(100, 1, 50, 8), false},
		{"SS2-Scan", params(100, 1, 51, 8), false},
		// SS-Scan: ts > m(tw+4).
		{"SS-Scan", params(100, 1, 19, 8), true},
		{"SS-Scan", params(100, 1, 21, 8), false},
		// BSS2-Comcast: tw + ts/m > 1/2, strictly.
		{"BSS2-Comcast", params(1, 1, 1000, 8), true}, // tw alone exceeds 1/2
		{"BSS2-Comcast", params(1, 0.1, 1000, 8), false},
		{"BSS2-Comcast", params(0, 0.5, 1000, 8), false}, // the tie
		// BSS-Comcast: tw + ts/m > 2.
		{"BSS-Comcast", params(1, 3, 1000, 8), true},
		{"BSS-Comcast", params(1, 1, 1000, 8), false},
		// BSR-Local: tw + ts/m >= 1/3 — the one non-strict row: at the tie
		// the all-local right-hand side still wins.
		{"BSR-Local", params(1, 1, 1000, 8), true},
		{"BSR-Local", params(1, 0.1, 1000, 8), false},
		{"BSR-Local", params(0, 1.0/3, 1000, 8), true},
		// Always-on rules.
		{"SR2-Reduction", params(0.001, 0.001, 100000, 8), true},
		{"BS-Comcast", params(0.001, 0.001, 100000, 8), true},
		{"BR-Local", params(0.001, 0.001, 100000, 8), true},
		{"BSR2-Local", params(0.001, 0.001, 100000, 8), true},
		{"CR-AllLocal", params(0.001, 0.001, 100000, 8), true},
	}
	for _, c := range cases {
		if got := entry(t, c.rule).Improves(c.p); got != c.want {
			t.Errorf("%s.Improves(%+v) = %v, want %v", c.rule, c.p, got, c.want)
		}
	}
}

// TestTable1ConditionsConsistent checks, for every rule and a wide
// parameter sweep, that the derived improvement condition agrees with
// Before > After — i.e., the table is internally consistent.
func TestTable1ConditionsConsistent(t *testing.T) {
	for _, pat := range exper.Patterns() {
		e := entry(t, pat.Rule)
		for _, ts := range []float64{0.5, 1, 10, 100, 1000, 10000} {
			for _, tw := range []float64{0.1, 1, 2, 8} {
				for _, m := range []int{1, 10, 100, 1000, 30000} {
					p := params(ts, tw, m, 64)
					improves := e.Before(p) > e.After(p)
					cond := e.Improves(p)
					// The BSR-Local condition is ≥, so allow equality
					// to disagree by a hair at the exact boundary.
					if improves != cond && math.Abs(e.Before(p)-e.After(p)) > 1e-9 {
						t.Errorf("%s at %+v: before=%g after=%g improves=%v cond(%s)=%v",
							e.Rule, p, e.Before(p), e.After(p), improves, e.Condition, cond)
					}
				}
			}
		}
	}
}

func TestSS2CrossoverAtTsOver2(t *testing.T) {
	// §4.2: SS2-Scan pays off iff ts > 2m, so the crossover block size
	// at ts = 1000 is m = 499 (the largest m with 1000 > 2m... m = 499
	// since m = 500 gives equality).
	got := cost.Crossover(entry(t, "SS2-Scan"), params(1000, 1, 0, 64), 1<<20)
	if got != 499 {
		t.Fatalf("SS2 crossover = %d, want 499", got)
	}
}

func TestCrossoverEdges(t *testing.T) {
	if got := cost.Crossover(entry(t, "SR2-Reduction"), params(1, 1, 0, 8), 1024); got != 1024 {
		t.Fatalf("always-improving crossover = %d, want 1024", got)
	}
	// ts = 1: improves only if 1 > m(tw+4) — false even at m = 1 with tw = 1.
	if got := cost.Crossover(entry(t, "SS-Scan"), params(1, 1, 0, 8), 1024); got != 0 {
		t.Fatalf("never-improving crossover = %d, want 0", got)
	}
}

func TestLookupMissing(t *testing.T) {
	if _, err := exper.Entry("nope"); err == nil {
		t.Fatal("exper.Entry derived a row for a nonexistent rule")
	}
}
