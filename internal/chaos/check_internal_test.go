package chaos

import (
	"math"
	"testing"

	"repro/internal/algebra"
	"repro/internal/exper"
	"repro/internal/mpbackend"
	"repro/internal/term"
)

// TestDeterminedIsOneSided: a position the semantics leaves Undef is a
// don't-care, but a leg answering Undef where the semantics has a value
// fails — which the symmetric algebra.EqualModuloUndef lets through.
func TestDeterminedIsOneSided(t *testing.T) {
	u := algebra.Undef{}
	for _, c := range []struct {
		sem, got algebra.Value
		tol      float64
		ok       bool
	}{
		{u, algebra.Scalar(5), 0, true},
		{algebra.Tuple{u, algebra.Scalar(1)}, algebra.Tuple{algebra.Scalar(7), algebra.Scalar(1)}, 0, true},
		{algebra.Scalar(1), u, 0, false},
		{algebra.Tuple{algebra.Scalar(1), u}, algebra.Tuple{u, algebra.Scalar(2)}, 0, false},
		{algebra.Vec{1, 2}, algebra.Tuple{u, u}, 0, false},
		{algebra.Tuple{algebra.Scalar(1)}, algebra.Tuple{algebra.Scalar(1), u}, 0, false},
		{algebra.Scalar(1), algebra.Scalar(1 + 1e-12), 1e-9, true},
		{algebra.Scalar(1), algebra.Scalar(1 + 1e-12), 0, false},
	} {
		if got := determined(c.sem, c.got, c.tol); got != c.ok {
			t.Errorf("determined(%v, %v, %g) = %v, want %v (symmetric: %v)",
				c.sem, c.got, c.tol, got, c.ok, algebra.EqualApproxModuloUndef(c.sem, c.got, c.tol))
		}
	}
}

// TestSameIsBitwise: one flipped bit of one word on one leg fails, and so
// does a −0 where the native leg has +0, which == holds equal; a NaN both
// legs compute passes, which == holds unequal to itself.
func TestSameIsBitwise(t *testing.T) {
	want := []algebra.Value{algebra.Vec{1, 2}, algebra.Tuple{algebra.Scalar(3), algebra.Vec{4}}}
	if err := same("leg", []algebra.Value{algebra.Vec{1, 2}, algebra.Tuple{algebra.Scalar(3), algebra.Vec{4}}}, want); err != nil {
		t.Fatal(err)
	}
	flipped := algebra.Vec{math.Float64frombits(math.Float64bits(4) ^ 1)}
	if same("leg", []algebra.Value{algebra.Vec{1, 2}, algebra.Tuple{algebra.Scalar(3), flipped}}, want) == nil {
		t.Fatal("a flipped bit passed")
	}
	negZero := algebra.Scalar(math.Copysign(0, -1))
	if same("leg", []algebra.Value{negZero}, []algebra.Value{algebra.Scalar(0)}) == nil {
		t.Fatal("-0 against +0 passed")
	}
	nan := algebra.Vec{1, math.NaN()}
	if err := same("leg", []algebra.Value{nan}, []algebra.Value{algebra.Vec{1, math.NaN()}}); err != nil {
		t.Fatalf("a NaN both legs compute failed: %v", err)
	}
}

// TestRuleSidesDetermineAlike: on the rule sweeps' examples and inputs, a
// right-hand side's semantics determines every value its left-hand side's
// does, and the same one. So a sweep that holds each side's machines to
// that side's own semantics holds the right-hand side's machines to the
// left-hand side's semantics too.
func TestRuleSidesDetermineAlike(t *testing.T) {
	for _, pat := range append(exper.Patterns(), exper.Extensions()...) {
		lhs := term.Compose(pat.LHS.Term())
		for _, p := range append(pat.Sizes(), 3, 8) {
			rhs, err := exper.ApplyRule(pat.Rule, lhs, p)
			if err != nil {
				continue // a Local rule at a non-power of two, or a size a counts vector rules out
			}
			for _, m := range []int{1, 4, 8} {
				in := mpbackend.ConformanceInputs(lhs, p, m)
				lhsSem, rhsSem := term.Eval(lhs, in), term.Eval(rhs, in)
				for r := range lhsSem {
					if !determined(lhsSem[r], rhsSem[r], 0) {
						t.Fatalf("%s p=%d m=%d rank %d: left-hand side %v, right-hand side %v", pat.Rule, p, m, r, lhsSem[r], rhsSem[r])
					}
				}
			}
		}
	}
}

// TestSameRejectsFlatTuples: a leg whose output is, or nests, a flat tuple
// fails, though algebra.Equal holds it equal to the boxed value.
func TestSameRejectsFlatTuples(t *testing.T) {
	ft := algebra.NewFlatTuple(2, 1)
	want := []algebra.Value{ft.Tuple(), algebra.Tuple{ft.Tuple(), algebra.Vec{0}}}
	if err := same("leg", want, want); err != nil {
		t.Fatal(err)
	}
	for _, got := range [][]algebra.Value{
		{ft, want[1]},
		{want[0], algebra.Tuple{ft, algebra.Vec{0}}},
	} {
		if same("leg", got, want) == nil {
			t.Errorf("%v passed as %v", got, want)
		}
	}
}
