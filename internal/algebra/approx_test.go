package algebra

import (
	"math"
	"testing"
)

func TestEqualApproxModuloUndef(t *testing.T) {
	cases := []struct {
		a, b Value
		tol  float64
		want bool
	}{
		{Scalar(1), Scalar(1), 1e-9, true},
		{Scalar(1e15), Scalar(1e15 + 1), 1e-9, true},
		{Scalar(1), Scalar(1.1), 1e-9, false},
		{Scalar(1), Scalar(1.05), 0.1, true},
		{Vec{1, 2}, Vec{1, 2.0000000001}, 1e-9, true},
		{Vec{1, 2}, Vec{1, 3}, 1e-9, false},
		{Vec{1, 2}, Vec{1, 2, 3}, 1e-9, false},
		{Undef{}, Scalar(99), 1e-9, true},
		{Tuple{Scalar(1), Undef{}}, Tuple{Scalar(1), Scalar(7)}, 1e-9, true},
		{Tuple{Scalar(2), Undef{}}, Tuple{Scalar(1), Scalar(7)}, 1e-9, false},
		{Tuple{Scalar(1)}, Tuple{Scalar(1), Scalar(2)}, 1e-9, false},
		{Scalar(0), Scalar(0), 1e-9, true},
		{Scalar(-5), Scalar(-5.0000000001), 1e-9, true},
		{Scalar(1), Vec{1}, 1e-9, false},
		// An infinity equals only itself: |x − y| and the scale are both
		// infinite, which no tolerance may read as close.
		{Scalar(math.Inf(1)), Scalar(5), 1e-9, false},
		{Scalar(math.Inf(1)), Scalar(math.Inf(-1)), 1e-9, false},
		{Scalar(math.Inf(1)), Scalar(math.MaxFloat64), 1e-9, false},
		{Scalar(math.Inf(-1)), Scalar(0), 1e-9, false},
		{Vec{1, math.Inf(-1)}, Vec{1, 0}, 1e-9, false},
		{Scalar(math.Inf(1)), Scalar(math.Inf(1)), 1e-9, true},
		{Vec{math.Inf(-1)}, Vec{math.Inf(-1)}, 1e-9, true},
	}
	for _, c := range cases {
		if got := EqualApproxModuloUndef(c.a, c.b, c.tol); got != c.want {
			t.Errorf("EqualApproxModuloUndef(%v, %v, %g) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

func TestApproxEq(t *testing.T) {
	if !approxEq(0, 0, 1e-9) {
		t.Error("zero/zero")
	}
	if approxEq(0, 1e-3, 1e-9) {
		t.Error("zero against nonzero must fail (relative scale)")
	}
	if !approxEq(-1e20, -1e20*(1+1e-12), 1e-9) {
		t.Error("large negatives within tolerance")
	}
}

func TestOpString(t *testing.T) {
	if Add.String() != "+" {
		t.Errorf("Add.String() = %q", Add.String())
	}
	sr2 := OpSR2(Mul, Add)
	if sr2.String() != "op_sr2(*,+)" {
		t.Errorf("sr2.String() = %q", sr2.String())
	}
}

func TestValueStrings(t *testing.T) {
	if got := Scalar(2.5).String(); got != "2.5" {
		t.Errorf("Scalar String = %q", got)
	}
	if got := (Vec{1, 2}).String(); got != "[1 2]" {
		t.Errorf("Vec String = %q", got)
	}
	long := make(Vec, 20)
	if got := long.String(); got != "vec[20]" {
		t.Errorf("long Vec String = %q", got)
	}
	if got := (Tuple{Scalar(1), Undef{}}).String(); got != "(1, _)" {
		t.Errorf("Tuple String = %q", got)
	}
}

func TestScalarVecBroadcastInOps(t *testing.T) {
	// lift broadcasts a Scalar across a Vec in either position.
	got := Add.Apply(Scalar(10), Vec{1, 2, 3})
	if !Equal(got, Vec{11, 12, 13}) {
		t.Fatalf("scalar+vec = %v", got)
	}
	got = Mul.Apply(Vec{1, 2, 3}, Scalar(2))
	if !Equal(got, Vec{2, 4, 6}) {
		t.Fatalf("vec*scalar = %v", got)
	}
}

func TestApplyWithoutImplementationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	op := &Op{Name: "hollow"}
	op.Apply(Scalar(1), Scalar(2))
}

func TestLiftRejectsMatrixMix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Add.Apply(NewMat(2, 2, 1, 2, 3, 4), Scalar(1))
}
