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

// statementsSparseAlphabet is the sparse stage alphabet: offset halos with
// distinct, duplicate, zero and mod-p-congruent offsets (-1 ≡ 1 mod 2 and
// -1 ≡ 2 mod 3), a neighbour-list halo, map inc and inc_t, and
// reduce_scatterv over +, max and matmul and allgatherv, each at counts (1,2)
// and (2,1).
func statementsSparseAlphabet() []term.Term {
	halo := func(o ...int) term.Term { return term.Halo{H: &term.Hood{Offsets: o}} }
	a := []term.Term{halo(-1, 1), halo(1, 1), halo(0), halo(-1, 2),
		term.Halo{H: &term.Hood{Lists: [][]int{{1}, {0}}}}, term.Map{F: IncFn}, term.Map{F: IncTupFn}}
	for _, c := range [][]int{{1, 2}, {2, 1}} {
		for _, op := range []*algebra.Op{algebra.Add, algebra.Max, algebra.MatMul} {
			a = append(a, term.ReduceScatterV{Op: op, Counts: c})
		}
		a = append(a, term.AllGatherV{Counts: c})
	}
	return a
}

// statementsLines is what every rule states and matches: the catalog as it
// prints, each rule's window, head and cost neutrality, and every 2- and
// 3-stage window that a rule of that width matches, with the canonical form
// of the replacement: over statementsAlphabet at P ∈ {0, 4, 6}, then over
// statementsSparseAlphabet at P ∈ {0, 2, 3}.
func statementsLines() []string {
	var out []string
	for _, l := range strings.Split(Catalog(true), "\n") {
		out = append(out, "catalog | "+l)
	}
	rs := AllWithExtensions()
	for _, r := range rs {
		out = append(out, fmt.Sprintf("rule %s window=%d head=%T neutral=%t", r.Name, r.Window, r.Head, r.CostNeutral))
	}
	out = appendMatches(out, "", rs, statementsAlphabet(), 0, 4, 6)
	return appendMatches(out, "sparse ", rs, statementsSparseAlphabet(), 0, 2, 3)
}

// appendMatches appends, for each P, a row for every rule match of every 2-
// and 3-stage window over alpha, then the count of windows and matches.
func appendMatches(out []string, label string, rs []Rule, alpha []term.Term, ps ...int) []string {
	for _, p := range ps {
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
					rhs, ok := r.Try(w, env)
					if !ok {
						continue
					}
					matches++
					out = append(out, fmt.Sprintf("%sp=%d %s => %s: %s", label, p, Canonical(term.Seq(w)), r.Name, Canonical(term.Seq(rhs))))
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
		out = append(out, fmt.Sprintf("%sp=%d windows=%d matches=%d", label, p, windows, matches))
	}
	return out
}

// TestStatementsRecorded holds the rules to what testdata/statements.golden
// recorded of them: how the catalog prints them, their windows, heads and
// cost neutrality, and what each matches and rewrites to over a small
// alphabet of dense windows at an unknown machine size, a power of two and
// another, and over one of sparse windows at an unknown size and the two
// sizes the counts vectors pin or miss.
func TestStatementsRecorded(t *testing.T) {
	golden.Check(t, "testdata/statements.golden", statementsLines(), nil)
}

// TestRepeatedMatchAllocs pins what a window matched before allocates: its
// replacement list, a reduction's box and, outside the memoized derived
// operators, the function a rule builds. Boxing each right-hand side once
// and memoizing (f; g), each(f) and allreduce(⊕) had taken the last five
// cases to 0 (from 6, 5, 1, 1, 1); taking that out, since no timed row
// showed it paying and no workload runs these rules, took them to 7, 6, 2,
// 2, 2 (docs/PERF.md "What each planner mechanism buys").
func TestRepeatedMatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	halo := term.Halo{H: &term.Hood{Offsets: []int{-1, 1}}}
	counts := []int{1, 2}
	for _, c := range []struct {
		r    Rule
		w    []term.Term
		want float64
	}{
		{SR2Reduction, []term.Term{term.Scan{Op: algebra.Mul}, term.Reduce{Op: algebra.Add}}, 2},
		{MMLocal, []term.Term{term.Map{F: IncFn}, term.Map{F: IncTupFn}}, 7},
		{MHMobility, []term.Term{term.Map{F: IncFn}, halo}, 6},
		{RBAllReduce, []term.Term{term.Reduce{Op: algebra.Add}, term.Bcast{}}, 2},
		{ABAllReduce, []term.Term{term.Reduce{Op: algebra.Max, All: true}, term.Bcast{}}, 2},
		{RSAGAllReduce, []term.Term{term.ReduceScatterV{Op: algebra.Add, Counts: counts}, term.AllGatherV{Counts: counts}}, 2},
	} {
		env := DefaultEnv()
		if _, ok := c.r.Try(c.w, env); !ok {
			t.Fatalf("%s does not match %v", c.r.Name, term.Seq(c.w))
		}
		if n := testing.AllocsPerRun(100, func() { c.r.Try(c.w, env) }); n != c.want {
			t.Errorf("%s: %.1f allocations a repeated match, want %.0f", c.r.Name, n, c.want)
		}
	}
}
