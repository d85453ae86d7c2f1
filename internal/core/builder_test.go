package core

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/term"
)

// TestBuilderCoversEveryStage builds the right-hand sides of the rules by
// hand with the full builder API and runs them, checking they compute what
// their rule's left-hand side computes.
func TestBuilderCoversEveryStage(t *testing.T) {
	mach := testMachine(8)
	in := scalars(3, 1, 4, 1, 5, 9, 2, 6)

	// SR-Reduction RHS by hand: map pair ; reduce_balanced(op_sr) ; map π₁.
	sr := algebra.OpSR(algebra.Add)
	rhs := NewProgram().Map(term.PairFn).ReduceBalanced(sr).Map(term.FirstFn)
	lhs := NewProgram().Scan(algebra.Add).Reduce(algebra.Add)
	outR, _ := rhs.Run(mach, in)
	outL, _ := lhs.Run(mach, in)
	if !algebra.Equal(algebra.First(outR[0]), outL[0]) {
		t.Fatalf("manual SR RHS = %v, LHS = %v", outR[0], outL[0])
	}

	// SR allreduce variant: AllReduceBalanced.
	rhsAll := NewProgram().Map(term.PairFn).AllReduceBalanced(sr).Map(term.FirstFn)
	lhsAll := NewProgram().Scan(algebra.Add).AllReduce(algebra.Add)
	outRA, _ := rhsAll.Run(mach, in)
	outLA, _ := lhsAll.Run(mach, in)
	for i := range outRA {
		if !algebra.Equal(algebra.First(outRA[i]), outLA[i]) {
			t.Fatalf("pos %d: %v vs %v", i, outRA[i], outLA[i])
		}
	}

	// SS-Scan RHS by hand: map quadruple ; scan_balanced(op_ss) ; map π₁.
	ss := algebra.OpSS(algebra.Add)
	rhsSS := NewProgram().Map(term.QuadrupleFn).ScanBalanced(ss).Map(term.FirstFn)
	lhsSS := NewProgram().Scan(algebra.Add).Scan(algebra.Add)
	outRS, _ := rhsSS.Run(mach, in)
	outLS, _ := lhsSS.Run(mach, in)
	for i := range outRS {
		if !algebra.Equal(outRS[i], outLS[i]) {
			t.Fatalf("pos %d: %v vs %v", i, outRS[i], outLS[i])
		}
	}

	// Comcast builder, both implementations.
	ops := algebra.OpCompBS(algebra.Add)
	bin := make([]algebra.Value, 8)
	for i := range bin {
		bin[i] = algebra.Undef{}
	}
	bin[0] = algebra.Scalar(2)
	for _, costOpt := range []bool{false, true} {
		prog := NewProgram().Comcast(ops, costOpt)
		out, _ := prog.Run(mach, bin)
		for k := range out {
			want := algebra.Scalar(float64(2 * (k + 1)))
			if !algebra.Equal(out[k], want) {
				t.Fatalf("comcast(costOpt=%v) proc %d = %v, want %v", costOpt, k, out[k], want)
			}
		}
	}

	// Iter builder: BR-Local RHS.
	br := NewProgram().Iter(algebra.OpBR(algebra.Add))
	outI, _ := br.Run(mach, bin)
	if !algebra.Equal(outI[0], algebra.Scalar(16)) {
		t.Fatalf("iter = %v, want 16", outI[0])
	}

	// MapIdx builder.
	addIdx := &term.IdxFn{
		Name: "addidx",
		F: func(i int, v algebra.Value) algebra.Value {
			return algebra.Add.Apply(v, algebra.Scalar(float64(i)))
		},
		Charge: func(i, m int) float64 { return float64(m) },
	}
	mi := NewProgram().MapIdx(addIdx)
	outM, _ := mi.Run(mach, in)
	for i := range outM {
		want := algebra.Add.Apply(in[i], algebra.Scalar(float64(i)))
		if !algebra.Equal(outM[i], want) {
			t.Fatalf("map# pos %d = %v, want %v", i, outM[i], want)
		}
	}
}

func TestBuilderStageStrings(t *testing.T) {
	sr := algebra.OpSR(algebra.Max)
	ss := algebra.OpSS(algebra.Min)
	ops := algebra.OpCompBS(algebra.Mul)
	prog := NewProgram().
		ReduceBalanced(sr).
		AllReduceBalanced(sr).
		ScanBalanced(ss).
		Comcast(ops, true).
		Iter(algebra.OpBR(algebra.Add))
	want := "reduce_balanced(op_sr(max)) ; allreduce_balanced(op_sr(max)) ; " +
		"scan_balanced(op_ss(min)) ; comcast(op_comp_bs(*)) ; iter(op_br(+))"
	if got := prog.String(); got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}

func TestEqualTermsMoreStages(t *testing.T) {
	ss := algebra.OpSS(algebra.Add)
	ops := algebra.OpCompBS(algebra.Add)
	br := algebra.OpBR(algebra.Add)
	idx := &term.IdxFn{Name: "i", F: func(i int, v algebra.Value) algebra.Value { return v }}
	pairs := []struct {
		a, b term.Term
		want bool
	}{
		{term.ScanBal{Op: ss}, term.ScanBal{Op: ss}, true},
		{term.ScanBal{Op: ss}, term.ScanBal{Op: algebra.OpSS(algebra.Add)}, false},
		{term.Comcast{Ops: ops}, term.Comcast{Ops: ops}, true},
		{term.Comcast{Ops: ops}, term.Comcast{Ops: ops, CostOptimal: true}, false},
		{term.Iter{Op: br}, term.Iter{Op: br}, true},
		{term.Iter{Op: br}, term.Iter{Op: algebra.OpBR(algebra.Add)}, false},
		{term.MapIdx{F: idx}, term.MapIdx{F: idx}, true},
		{term.MapIdx{F: idx}, term.Bcast{}, false},
	}
	for _, c := range pairs {
		if got := term.EqualTerms(c.a, c.b); got != c.want {
			t.Errorf("EqualTerms(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}
