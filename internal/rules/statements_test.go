package rules

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/golden"
	"repro/internal/term"
)

// statementsAlphabet is the stage alphabet the match table walks: the
// value-free stages, map inc, and every scan and reduction form over five
// operators — four commutative ones with distributivity pairs among them,
// and matmul, which is associative only.
func statementsAlphabet() []term.Term {
	a := []term.Term{term.Bcast{}, term.Gather{}, term.Scatter{}, term.Map{F: IncFn}}
	for _, op := range []*algebra.Op{algebra.Add, algebra.Mul, algebra.Max, algebra.Min, algebra.MatMul} {
		a = append(a,
			term.Scan{Op: op}, term.ScanBal{Op: opSS(op, nil)},
			term.Reduce{Op: op}, term.Reduce{Op: op, All: true},
			term.Reduce{Op: op, Balanced: true}, term.Reduce{Op: op, All: true, Balanced: true})
	}
	return a
}

// statementsLines is what every rule states and matches: the catalog as it
// prints, each rule's window, head and cost neutrality, and, at P ∈ {0, 4,
// 6}, every 2- and 3-stage window over statementsAlphabet that a rule of
// that width matches, with the canonical form of the replacement.
func statementsLines() []string {
	var out []string
	for _, l := range strings.Split(Catalog(true), "\n") {
		out = append(out, "catalog | "+l)
	}
	rs := AllWithExtensions()
	for _, r := range rs {
		out = append(out, fmt.Sprintf("rule %s window=%d head=%T neutral=%t", r.Name, r.Window, r.Head, r.CostNeutral))
	}
	alpha := statementsAlphabet()
	for _, p := range []int{0, 4, 6} {
		env := DefaultEnv()
		env.P = p
		windows, matches := 0, 0
		var walk func(w []term.Term)
		walk = func(w []term.Term) {
			if len(w) >= 2 {
				windows++
				for _, r := range rs {
					if r.Window != len(w) {
						continue
					}
					rhs, ok := r.Try(nil, w, env)
					if !ok {
						continue
					}
					matches++
					out = append(out, fmt.Sprintf("p=%d %s => %s: %s", p, Canonical(term.Seq(w)), r.Name, Canonical(term.Seq(rhs))))
				}
			}
			if len(w) == 3 {
				return
			}
			for _, st := range alpha {
				walk(append(w[:len(w):len(w)], st))
			}
		}
		walk(nil)
		out = append(out, fmt.Sprintf("p=%d windows=%d matches=%d", p, windows, matches))
	}
	return out
}

// TestStatementsRecorded holds the rules to what testdata/statements.golden
// recorded of them: how the catalog prints them, their windows, heads and
// cost neutrality, and what each matches and rewrites to over a small
// alphabet of windows at an unknown machine size, a power of two and
// another.
func TestStatementsRecorded(t *testing.T) {
	golden.Check(t, "testdata/statements.golden", statementsLines(), nil)
}
