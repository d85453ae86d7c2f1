package core_test

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/term"
)

// TestPowersAfterBcast: after bcast every rank holds the root's b, so a
// scan or reduction over one associative ⊕ yields ⊕-powers of b, and
// powers of one value commute under associativity alone. With ranks
// counted from 0:
//
//	bcast ; reduce(⊕)             = b^p at the root
//	bcast ; scan(⊕) ; reduce(⊕)   = b^(p(p+1)/2) at the root
//	bcast ; scan(⊕) ; scan(⊕)     = b^((i+1)(i+2)/2) at rank i
//
// They hold for matmul, which is not commutative, at every p in 1..9, in
// the semantics and on the virtual and native machines: neither the
// commutativity BSS-Comcast and BSR-Local require nor the p = 2^k the
// Local rules require is needed (EXPERIMENTS.md, "Two conditions the
// rules do not need").
func TestPowersAfterBcast(t *testing.T) {
	// The companion matrix of x³ − x − 1: not symmetric, and of spectral
	// radius 1.32, so its 45th power (rank 8 of the double scan) is exact.
	b := algebra.NewMat(3, 3, 0, 0, 1, 1, 0, 1, 0, 1, 0)
	bt := algebra.NewMat(3, 3, 0, 1, 0, 0, 0, 1, 1, 1, 0) // its transpose
	pow := func(k int) algebra.Value {
		r := algebra.Identity(3)
		for range k {
			r = r.MulMat(b)
		}
		return r
	}
	if algebra.Equal(b.MulMat(bt), bt.MulMat(b)) {
		t.Fatal("b commutes with its transpose: the inputs do not exercise a non-commutative ⊕")
	}
	bcast, scan, reduce := term.Bcast{}, term.Scan{Op: algebra.MatMul}, term.Reduce{Op: algebra.MatMul}
	for p := 1; p <= 9; p++ {
		in := make([]algebra.Value, p)
		in[0] = b
		for i := 1; i < p; i++ {
			in[i] = bt // ignored by bcast
		}
		for _, c := range []struct {
			prog term.Seq
			exp  func(i int) int // the power at rank i; −1 where undetermined
		}{
			{term.Seq{bcast, reduce}, func(i int) int { return root(i, p) }},
			{term.Seq{bcast, scan, reduce}, func(i int) int { return root(i, p*(p+1)/2) }},
			{term.Seq{bcast, scan, scan}, func(i int) int { return (i + 1) * (i + 2) / 2 }},
		} {
			virtual, _ := core.FromTerm(c.prog).Run(core.Machine{Ts: 100, Tw: 1, P: p}, in)
			native, _ := core.FromTerm(c.prog).RunNative(p, in)
			for leg, out := range map[string][]algebra.Value{"semantics": term.Eval(c.prog, in), "virtual": virtual, "native": native} {
				for i, got := range out {
					if k := c.exp(i); k >= 0 && !algebra.Equal(got, pow(k)) {
						t.Errorf("%s p=%d %s: rank %d holds %v, want b^%d = %v", c.prog, p, leg, i, got, k, pow(k))
					}
				}
			}
		}
	}
}

// root is k at rank 0 and −1 (undetermined) elsewhere, as a reduction
// leaves its result.
func root(i, k int) int {
	if i == 0 {
		return k
	}
	return -1
}
