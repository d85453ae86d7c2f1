package rules

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/term"
)

// TestExhaustiveVerificationOfEveryRule proves each rule's equality by
// enumeration over the domain {-1, 0, 1, 2} on up to four processors
// (powers of two only, which covers the Local rules' requirement and is a
// subset of the general rules' domain).
func TestExhaustiveVerificationOfEveryRule(t *testing.T) {
	domain := []float64{-1, 0, 1, 2}
	cases := []struct {
		rule   Rule
		stages []term.Term
	}{
		{SR2Reduction, []term.Term{term.Scan{Op: algebra.Mul}, term.Reduce{Op: algebra.Add}}},
		{SR2Reduction, []term.Term{term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Max}}},
		{SR2Reduction, []term.Term{term.Scan{Op: algebra.Mul}, term.Reduce{Op: algebra.Add, All: true}}},
		{SRReduction, []term.Term{term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Add}}},
		{SRReduction, []term.Term{term.Scan{Op: algebra.Max}, term.Reduce{Op: algebra.Max}}},
		{SS2Scan, []term.Term{term.Scan{Op: algebra.Mul}, term.Scan{Op: algebra.Add}}},
		{SSScan, []term.Term{term.Scan{Op: algebra.Add}, term.Scan{Op: algebra.Add}}},
		{BSComcast, []term.Term{term.Bcast{}, term.Scan{Op: algebra.Add}}},
		{BSComcast, []term.Term{term.Bcast{}, term.Scan{Op: algebra.Left}}},
		{BSS2Comcast, []term.Term{term.Bcast{}, term.Scan{Op: algebra.Mul}, term.Scan{Op: algebra.Add}}},
		{BSSComcast, []term.Term{term.Bcast{}, term.Scan{Op: algebra.Add}, term.Scan{Op: algebra.Add}}},
		{BRLocal, []term.Term{term.Bcast{}, term.Reduce{Op: algebra.Add}}},
		{BSR2Local, []term.Term{term.Bcast{}, term.Scan{Op: algebra.Mul}, term.Reduce{Op: algebra.Add}}},
		{BSRLocal, []term.Term{term.Bcast{}, term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Add}}},
		{CRAllLocal, []term.Term{term.Bcast{}, term.Reduce{Op: algebra.Add, All: true}}},
		// Extensions.
		{BMMobility, []term.Term{term.Bcast{}, term.Map{F: term.PairFn}}},
		{RBAllReduce, []term.Term{term.Reduce{Op: algebra.Add}, term.Bcast{}}},
		{BBBcast, []term.Term{term.Bcast{}, term.Bcast{}}},
		{ABAllReduce, []term.Term{term.Reduce{Op: algebra.Max, All: true}, term.Bcast{}}},
	}
	env := DefaultEnv()
	for _, c := range cases {
		repl, ok := c.rule.Try(c.stages, env)
		if !ok {
			t.Fatalf("%s did not match %s", c.rule.Name, term.Seq(c.stages))
		}
		// Rules that need p = 2^k are only valid on powers of two; the
		// enumeration covers n = 1, 2, 4 for them and 1..4 for the rest.
		maxN := 4
		lhs, rhs := term.Seq(c.stages), term.Seq(repl)
		if c.rule.NeedsPow2() {
			for _, n := range []int{1, 2, 4} {
				if err := exhaustiveAt(lhs, rhs, domain, n); err != nil {
					t.Fatalf("%s: %v", c.rule.Name, err)
				}
			}
			continue
		}
		if err := VerifyExhaustive(lhs, rhs, domain, maxN); err != nil {
			t.Fatalf("%s: %v", c.rule.Name, err)
		}
	}
}

// exhaustiveAt enumerates one specific list length.
func exhaustiveAt(lhs, rhs term.Term, domain []float64, n int) error {
	in := make([]algebra.Value, n)
	var walk func(pos int) error
	walk = func(pos int) error {
		if pos == n {
			return compareOn(lhs, rhs, sample{n, -1, in}, 0)
		}
		for _, d := range domain {
			in[pos] = algebra.Scalar(d)
			if err := walk(pos + 1); err != nil {
				return err
			}
		}
		return nil
	}
	return walk(0)
}

func TestVerifyExhaustiveCatchesCounterexample(t *testing.T) {
	lhs := term.Seq{term.Scan{Op: algebra.Add}}
	rhs := term.Seq{term.Scan{Op: algebra.Mul}}
	if err := VerifyExhaustive(lhs, rhs, []float64{0, 1, 2}, 3); err == nil {
		t.Fatal("exhaustive verification accepted inequivalent programs")
	}
}
