package algebra

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The kernels are only correct if they are *exactly* the reference
// semantics in another representation: same elementary operations, same
// order, bitwise-equal floats. These tests compare every flat/in-place
// kernel against the boxed reference on random inputs — genuine floats,
// on which a kernel that brackets t1 ⊕ t2 ⊕ u1 the other way round or
// fuses a multiply into an add rounds differently from the reference.

func randVec(rng *rand.Rand, m int) Vec {
	v := make(Vec, m)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func randTuple(rng *rand.Rand, w, m int) Tuple {
	t := make(Tuple, w)
	for i := range t {
		t[i] = randVec(rng, m)
	}
	return t
}

func flatOf(t Tuple) *FlatTuple {
	m, ok := flatShape(len(t), t)
	if !ok {
		panic("flatOf: not flattenable")
	}
	return NewFlatTuple(len(t), m).FlattenInto(t)
}

// forms are t's representations: boxed, and flat when it can be.
func forms(t Tuple) []Value {
	if _, ok := flatShape(len(t), t); ok {
		return []Value{t, flatOf(t)}
	}
	return []Value{t}
}

// poisoned is t with every component but the first undetermined, as Solo
// leaves a balanced scan's state.
func poisoned(t Tuple) Tuple {
	p := Tuple{t[0]}
	for range t[1:] {
		p = append(p, Undef{})
	}
	return p
}

// entrySizes are kernelSizes and a zero-length block, which no kernel
// takes.
var entrySizes = append([]int{0}, kernelSizes...)

// kernelSizes straddles the block boundary of the derived kernels (255,
// 256, 257) and includes a multi-block size with a ragged tail (1000).
var kernelSizes = []int{1, 2, 3, 8, 33, 255, 256, 257, 1000}

// TestApplyIntoMatchesApply: ApplyIn, drawing from no arena (ApplyInto)
// or from one, is Apply bit for bit on Vec and Scalar blocks, a zero-length
// one too, on tuples no kernel takes, into a destination of the right
// shape and into one that is an operand.
func TestApplyIntoMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ar := range []*Arena{nil, new(Arena)} {
		for _, op := range []*Op{Add, Mul, Max, Min, Left, Sub} {
			for _, m := range append([]int{0}, kernelSizes...) {
				a, b := randVec(rng, m), randVec(rng, m)
				s := Scalar(float64(rng.Intn(9)) - 4)
				cases := []struct{ x, y Value }{
					{a, b}, {a, s}, {s, b}, {s, Scalar(3)},
					{Tuple{a, b}, Tuple{b, a}}, // no kernel: reference fallback
				}
				for _, c := range cases {
					want := op.Apply(c.x, c.y)
					got := op.ApplyIn(ar, nil, c.x, c.y)
					if !Identical(got, want) {
						t.Fatalf("%s.ApplyIn(nil, %s, %s) = %s, want %s", op, c.x, c.y, got, want)
					}
					// With a destination of the right shape the result must
					// land in the destination's storage.
					if v, ok := want.(Vec); ok && m > 0 {
						dst := Value(make(Vec, len(v)))
						got := op.ApplyIn(ar, dst, c.x, c.y)
						if !Identical(got, want) {
							t.Fatalf("%s.ApplyIn(dst, %s, %s) = %s, want %s", op, c.x, c.y, got, want)
						}
						if &got.(Vec)[0] != &dst.(Vec)[0] {
							t.Fatalf("%s.ApplyIn did not reuse dst storage", op)
						}
					}
				}
				// dst aliasing an operand must be safe.
				aa, bb := a.Clone(), b.Clone()
				want := op.Apply(a, b)
				if got := op.ApplyIn(ar, aa, aa, b); !Identical(got, want) {
					t.Fatalf("%s.ApplyIn(a, a, b) = %s, want %s", op, got, want)
				}
				if got := op.ApplyIn(ar, bb, a, bb); !Identical(got, want) {
					t.Fatalf("%s.ApplyIn(b, a, b) = %s, want %s", op, got, want)
				}
			}
		}
		ar.Reset()
	}
}

func TestSliceKernelIsElemBitwise(t *testing.T) {
	specials := []float64{
		math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
		math.MaxFloat64, -math.MaxFloat64, 1, -1.5,
	}
	var xs, ys []float64
	for _, x := range specials {
		for _, y := range specials {
			xs, ys = append(xs, x), append(ys, y)
		}
	}
	avg := NewBase("avg", func(x, y float64) float64 { return (x + y) / 2 })
	for _, op := range []*Op{Add, Mul, Max, Min, Left, Sub, avg} {
		if (op.kern == kernElem) != (op == avg) {
			t.Fatalf("%s: slice kernel id %d", op, op.kern)
		}
		for _, alias := range []string{"fresh", "x", "y"} {
			x, y := append([]float64(nil), xs...), append([]float64(nil), ys...)
			dst := make([]float64, len(xs))
			switch alias {
			case "x":
				dst = x
			case "y":
				dst = y
			}
			op.slice(dst, x, y)
			for i := range dst {
				want := op.Elem(xs[i], ys[i])
				if math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Errorf("%s slice kernel, dst %s: %v op %v = %v (%#x), Elem gives %v (%#x)", op, alias,
						xs[i], ys[i], dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
				}
			}
		}
		// The broadcast arms of ApplyInto: every special as the scalar,
		// on either side, into a fresh destination and over the vector.
		for _, s := range specials {
			for _, left := range []bool{false, true} {
				for _, alias := range []string{"fresh", "x"} {
					x := append(Vec(nil), specials...)
					var dst Value
					if alias == "x" {
						dst = x
					}
					a, b := Value(x), Value(Scalar(s))
					if left {
						a, b = b, a
					}
					got := op.ApplyInto(dst, a, b).(Vec)
					for i := range got {
						want := op.Elem(specials[i], s)
						if left {
							want = op.Elem(s, specials[i])
						}
						if math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Errorf("%s broadcast kernel, scalar %v left=%v, dst %s: element %v gives %v (%#x), Elem gives %v (%#x)", op, s, left, alias,
								specials[i], got[i], math.Float64bits(got[i]), want, math.Float64bits(want))
						}
					}
				}
			}
		}
	}
}

func TestFlatKernelsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ops := []*Op{
		OpSR2(Mul, Add), OpSR2(Add, Max),
		OpNew(Add, Mul), OpNew(Max, Min),
		OpSR(Add), OpSR(Max),
		OpSRNoSharing(Add),
	}
	for _, op := range ops {
		if op.FlatFn == nil {
			t.Fatalf("%s: no flat kernel", op)
		}
		for _, m := range kernelSizes {
			a, b := randTuple(rng, op.Arity, m), randTuple(rng, op.Arity, m)
			want := op.Apply(a, b)
			got := op.ApplyInto(nil, flatOf(a), flatOf(b))
			if !Identical(got, want) {
				t.Fatalf("%s flat kernel: got %s, want %s (m=%d)", op, got, want, m)
			}
			// In place: dst aliasing operand a, operand b, and both.
			fa, fb := flatOf(a), flatOf(b)
			if !Identical(op.ApplyInto(fa, fa, flatOf(b)), want) {
				t.Fatalf("%s flat kernel with dst = a mismatch (m=%d)", op, m)
			}
			if !Identical(op.ApplyInto(fb, flatOf(a), fb), want) {
				t.Fatalf("%s flat kernel with dst = b mismatch (m=%d)", op, m)
			}
			fa = flatOf(a)
			if !Identical(op.ApplyInto(fa, fa, fa), op.Apply(a, a)) {
				t.Fatalf("%s flat kernel with dst = a = b mismatch (m=%d)", op, m)
			}
			if op.Unary != nil {
				want := op.ApplyUnary(b)
				if !Identical(op.ApplyUnaryIn(nil, nil, flatOf(b)), want) {
					t.Fatalf("%s flat unary mismatch (m=%d)", op, m)
				}
				fb := flatOf(b)
				if !Identical(op.ApplyUnaryIn(nil, fb, fb), want) {
					t.Fatalf("%s flat unary in-place mismatch (m=%d)", op, m)
				}
			}
		}
	}
}

// TestFlatApplyInMatchesReference: ApplyIn, ApplyUnaryIn and Working of
// every derived operator return the reference's bits on flat, boxed and
// mixed operands, on operands Solo poisoned and on zero-length blocks, into
// a fresh destination and into one that is an operand, with and without an
// arena.
func TestFlatApplyInMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ops := []*Op{OpSR2(Mul, Add), OpNew(Add, Mul), OpSR(Add), OpSRNoSharing(Max)}
	for _, ar := range []*Arena{nil, new(Arena)} {
		for _, op := range ops {
			for _, m := range entrySizes {
				a, b := randTuple(rng, op.Arity, m), randTuple(rng, op.Arity, m)
				for _, c := range [][2]Tuple{{a, b}, {poisoned(a), b}, {a, poisoned(b)}} {
					want := op.Apply(c[0], c[1])
					for _, x := range forms(c[0]) {
						for _, y := range forms(c[1]) {
							if got := op.ApplyIn(ar, nil, x, y); !Identical(got, want) {
								t.Fatalf("%s.ApplyIn(%T, %T): got %s, want %s (m=%d)", op, x, y, got, want, m)
							}
							if fx, ok := x.(*FlatTuple); ok {
								if got := op.ApplyIn(ar, fx.Clone(), fx, y); !Identical(got, want) {
									t.Fatalf("%s.ApplyIn into an unrelated dst: got %s, want %s (m=%d)", op, got, want, m)
								}
								if fx := fx.Clone(); !Identical(op.ApplyIn(ar, fx, fx, y), want) {
									t.Fatalf("%s.ApplyIn(a, a, %T) is not %s (m=%d)", op, y, want, m)
								}
							}
						}
					}
				}
				if op.Unary != nil {
					for _, in := range []Tuple{b, poisoned(b)} {
						want := op.ApplyUnary(in)
						for _, x := range forms(in) {
							if got := op.ApplyUnaryIn(ar, nil, x); !Identical(got, want) {
								t.Fatalf("%s.ApplyUnaryIn(%T): got %s, want %s (m=%d)", op, x, got, want, m)
							}
							if fx, ok := x.(*FlatTuple); ok {
								if got := op.ApplyUnaryIn(ar, fx, fx); !Identical(got, want) {
									t.Fatalf("%s.ApplyUnaryIn(b, b): got %s, want %s (m=%d)", op, got, want, m)
								}
							}
						}
					}
				}
				for _, in := range []Tuple{a, poisoned(a)} {
					for _, x := range forms(in) {
						w, dst := op.Working(ar, x)
						if !Identical(w, in) {
							t.Fatalf("%s.Working(%T) = %s, want %s (m=%d)", op, x, w, in, m)
						}
						// A flat operand passes through, with no dst: it is
						// not the caller's to rewrite; a boxed one the kernels
						// take is copied into a flat tuple that is its dst.
						f, flat := w.(*FlatTuple)
						fx, xflat := x.(*FlatTuple)
						d, _ := dst.(*FlatTuple)
						if xflat && f != fx || (dst != nil) != (flat && !xflat) || dst != nil && d != f || flat && (m == 0 || in[1] == (Undef{})) {
							t.Fatalf("%s.Working(%T) = %T, dst %T (m=%d)", op, x, w, dst, m)
						}
					}
				}
			}
		}
		ar.Reset()
	}
}

func TestFlatBalancedScanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, op := range []*BalancedScanOp{OpSS(Add), OpSS(Max)} {
		if op.FlatShip == nil || op.FlatLo == nil || op.FlatHi == nil {
			t.Fatalf("%s: missing flat kernels", op.Name)
		}
		for _, m := range kernelSizes {
			lo, hi := randTuple(rng, op.Arity, m), randTuple(rng, op.Arity, m)
			flo, fhi := flatOf(lo), flatOf(hi)

			shipLo := NewFlatTuple(op.ShipWidth, m)
			op.FlatShip(shipLo, flo)
			if !Identical(shipLo, op.Ship(lo)) {
				t.Fatalf("%s FlatShip mismatch (m=%d)", op.Name, m)
			}
			shipHi := NewFlatTuple(op.ShipWidth, m)
			op.FlatShip(shipHi, fhi)

			wantLo := op.Lo(lo, op.Ship(hi))
			wantHi := op.Hi(hi, op.Ship(lo))
			gotLo := NewFlatTuple(op.Arity, m)
			op.FlatLo(gotLo, flo, shipHi)
			if !Identical(gotLo, wantLo) {
				t.Fatalf("%s FlatLo: got %s, want %s (m=%d)", op.Name, gotLo, wantLo, m)
			}
			gotHi := NewFlatTuple(op.Arity, m)
			op.FlatHi(gotHi, fhi, shipLo)
			if !Identical(gotHi, wantHi) {
				t.Fatalf("%s FlatHi: got %s, want %s (m=%d)", op.Name, gotHi, wantHi, m)
			}
			// In place, dst aliasing own.
			op.FlatLo(flo, flo, shipHi)
			if !Identical(flo, wantLo) {
				t.Fatalf("%s FlatLo in-place mismatch (m=%d)", op.Name, m)
			}
			op.FlatHi(fhi, fhi, shipLo)
			if !Identical(fhi, wantHi) {
				t.Fatalf("%s FlatHi in-place mismatch (m=%d)", op.Name, m)
			}
		}
	}
}

// TestFlatBalancedScanEntriesMatchReference: Working, ShipIn and NodeIn
// return the reference's bits on flat, boxed and mixed states and
// projections, on states Solo poisoned and on zero-length blocks, into a
// fresh destination and into the state itself, with and without an arena.
func TestFlatBalancedScanEntriesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, ar := range []*Arena{nil, new(Arena)} {
		for _, op := range []*BalancedScanOp{OpSS(Add), OpSS(Max)} {
			for _, m := range entrySizes {
				lo, hi := randTuple(rng, op.Arity, m), randTuple(rng, op.Arity, m)
				for _, c := range [][2]Tuple{{lo, hi}, {poisoned(lo), hi}, {lo, poisoned(hi)}} {
					wantLo := op.Lo(c[0], op.Ship(c[1]))
					wantHi := op.Hi(c[1], op.Ship(c[0]))
					for _, x := range forms(c[0]) {
						for _, y := range forms(c[1]) {
							w, dst := op.Working(ar, x)
							if !Identical(w, c[0]) {
								t.Fatalf("%s Working(%T) = %s, want %s (m=%d)", op.Name, x, w, c[0], m)
							}
							shipLo, shipHi := op.ShipIn(ar, nil, w), op.ShipIn(ar, nil, y)
							if !Identical(shipLo, op.Ship(c[0])) {
								t.Fatalf("%s ShipIn(%T) = %s, want %s (m=%d)", op.Name, w, shipLo, op.Ship(c[0]), m)
							}
							if got := op.NodeIn(ar, nil, x, shipHi, false); !Identical(got, wantLo) {
								t.Fatalf("%s NodeIn lo (%T, %T): got %s, want %s (m=%d)", op.Name, x, shipHi, got, wantLo, m)
							}
							if got := op.NodeIn(ar, nil, y, shipLo, true); !Identical(got, wantHi) {
								t.Fatalf("%s NodeIn hi (%T, %T): got %s, want %s (m=%d)", op.Name, y, shipLo, got, wantHi, m)
							}
							// In place, into the working copy; a flat operand is
							// not the caller's, so its node writes a drawn tuple.
							if got := op.NodeIn(ar, dst, w, shipHi, false); !Identical(got, wantLo) {
								t.Fatalf("%s NodeIn lo in place: got %s, want %s (m=%d)", op.Name, got, wantLo, m)
							}
						}
					}
				}
			}
		}
		ar.Reset()
	}
}

func TestFlatRepeatMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ops := []*RepeatOps{OpCompBS(Add), OpCompBSS2(Mul, Add), OpCompBSS(Add), OpCompBSS(Max)}
	for _, r := range ops {
		if r.FlatE == nil || r.FlatO == nil {
			t.Fatalf("%s: missing flat kernels", r.Name)
		}
		for _, m := range kernelSizes {
			b := randVec(rng, m)
			// One step of each function into a destination that is not
			// the operand; RepeatIn below only ever runs them in place.
			v := randTuple(rng, r.Arity, m)
			d := NewFlatTuple(r.Arity, m)
			if r.FlatE(d, flatOf(v)); !Identical(d, r.E(v)) {
				t.Fatalf("%s FlatE into a fresh dst: got %s, want %s (m=%d)", r.Name, d, r.E(v), m)
			}
			if r.FlatO(d, flatOf(v)); !Identical(d, r.O(v)) {
				t.Fatalf("%s FlatO into a fresh dst: got %s, want %s (m=%d)", r.Name, d, r.O(v), m)
			}
			var w Value
			for k := 0; k < 20; k++ {
				want := r.Repeat(k, r.Prepare(b))
				// The working state of the previous k is the destination.
				if w = r.RepeatIn(nil, w, k, b); !Identical(w, want) {
					t.Fatalf("%s RepeatIn(%d): got %s, want %s (m=%d)", r.Name, k, w, want, m)
				}
			}
		}
	}
}

// TestFlatRepeatInMatchesReference: RepeatIn and StepIn return the
// reference's bits on a Vec block, a zero-length one, a block a kernel
// does not take and an undetermined one, and on flat, boxed and poisoned
// states, into a fresh destination and into the state itself, with and
// without an arena.
func TestFlatRepeatInMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ops := []*RepeatOps{OpCompBS(Add), OpCompBSS2(Mul, Add), OpCompBSS(Max)}
	for _, ar := range []*Arena{nil, new(Arena)} {
		for _, r := range ops {
			for _, m := range entrySizes {
				v := randVec(rng, m)
				for _, b := range []Value{v, Tuple{v, v}, Undef{}} {
					for _, k := range []int{0, 1, 2, 5, 6, 13} {
						want := r.Repeat(k, r.Prepare(b))
						if got := r.RepeatIn(ar, nil, k, b); !Identical(got, want) {
							t.Fatalf("%s RepeatIn(%d, %s): got %s, want %s", r.Name, k, b, got, want)
						}
					}
				}
				state := randTuple(rng, r.Arity, m)
				for _, in := range []Tuple{state, poisoned(state)} {
					for _, odd := range []bool{false, true} {
						want := r.E(in)
						if odd {
							want = r.O(in)
						}
						for _, x := range forms(in) {
							if got := r.StepIn(ar, nil, x, odd); !Identical(got, want) {
								t.Fatalf("%s StepIn(%T, odd=%v): got %s, want %s (m=%d)", r.Name, x, odd, got, want, m)
							}
							if fx, ok := x.(*FlatTuple); ok {
								if got := r.StepIn(ar, fx.Clone(), fx, odd); !Identical(got, want) {
									t.Fatalf("%s StepIn into an unrelated dst (m=%d)", r.Name, m)
								}
								if fx := fx.Clone(); !Identical(r.StepIn(ar, fx, fx, odd), want) {
									t.Fatalf("%s StepIn in place, odd=%v, is not %s (m=%d)", r.Name, odd, want, m)
								}
							}
						}
					}
				}
			}
		}
		ar.Reset()
	}
}

func TestFlatIterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ops := []*IterOp{OpBR(Add), OpBSR2(Mul, Add), OpBSR(Add), OpBSR(Max)}
	for _, op := range ops {
		if op.FlatF == nil {
			t.Fatalf("%s: no flat kernel", op.Name)
		}
		for _, m := range kernelSizes {
			b := randVec(rng, m)
			want := op.Prepare(b)
			w := NewFlatTuple(op.Arity, m)
			for i := 0; i < op.Arity; i++ {
				copy(w.Comp(i), b)
			}
			for step := 0; step < 5; step++ {
				want = op.F(want)
				d := NewFlatTuple(op.Arity, m)
				if op.FlatF(d, w); !Identical(d, want) {
					t.Fatalf("%s step %d into a fresh dst: got %s, want %s (m=%d)", op.Name, step, d, want, m)
				}
				op.FlatF(w, w)
				if !Identical(w, want) {
					t.Fatalf("%s step %d: got %s, want %s (m=%d)", op.Name, step, w, want, m)
				}
			}
		}
	}
}

// TestFlatIterateInMatchesReference: IterateIn returns the reference's
// bits on a Vec block, a zero-length one, a block a kernel does not take
// and an undetermined one, into a fresh destination and into the state of
// the previous call, with and without an arena.
func TestFlatIterateInMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, ar := range []*Arena{nil, new(Arena)} {
		for _, op := range []*IterOp{OpBR(Add), OpBSR2(Mul, Add), OpBSR(Max)} {
			for _, m := range entrySizes {
				v := randVec(rng, m)
				for _, x := range []Value{v, Tuple{v, v}, Undef{}} {
					var w Value
					for n := 0; n < 5; n++ {
						want := op.Prepare(x)
						for range n {
							want = op.F(want)
						}
						if got := op.IterateIn(ar, nil, n, x); !Identical(got, want) {
							t.Fatalf("%s IterateIn(%d, %s): got %s, want %s", op.Name, n, x, got, want)
						}
						if w = op.IterateIn(ar, w, n, x); !Identical(w, want) {
							t.Fatalf("%s IterateIn(%d) into the last state: got %s, want %s", op.Name, n, w, want)
						}
					}
				}
			}
		}
		ar.Reset()
	}
}

func TestFlatTupleValueSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tp := randTuple(rng, 2, 4)
	ft := flatOf(tp)
	if ft.Words() != tp.Words() {
		t.Fatalf("flat Words = %d, boxed Words = %d", ft.Words(), tp.Words())
	}
	if ft.String() != tp.String() {
		t.Fatalf("flat String = %q, boxed String = %q", ft.String(), tp.String())
	}
	if !Equal(ft, tp) || !Equal(tp, ft) || !EqualModuloUndef(ft, tp) ||
		!EqualApproxModuloUndef(tp, ft, 0) {
		t.Fatal("flat tuple does not compare equal to its boxed form")
	}
	if IsUndef(ft) {
		t.Fatal("flat tuple reported undetermined")
	}
	if !Equal(First(ft), tp[0]) {
		t.Fatalf("First(flat) = %s, want %s", First(ft), tp[0])
	}
	other := flatOf(randTuple(rng, 2, 4))
	if Equal(ft, other) {
		t.Fatal("distinct flat tuples compared equal")
	}
	cl := ft.Clone()
	cl.Data[0]++
	if ft.Data[0] == cl.Data[0] {
		t.Fatal("Clone shares the backing array")
	}
	if _, ok := flatShape(2, Tuple{Scalar(1), Scalar(2)}); ok {
		t.Fatal("scalar tuple reported flattenable")
	}
	if _, ok := flatShape(2, Tuple{make(Vec, 2), make(Vec, 3)}); ok {
		t.Fatal("ragged tuple reported flattenable")
	}
	if _, ok := flatShape(2, Tuple{make(Vec, 2), Undef{}}); ok {
		t.Fatal("tuple with Undef reported flattenable")
	}
}

func TestArenaReusesBuffers(t *testing.T) {
	a := new(Arena)
	v1 := a.Vec(8)
	f1 := a.Flat(2, 8)
	t1, b1 := a.Tuple(3)
	t1[0], t1[1], t1[2] = v1, v1, v1
	if b1.(Tuple)[0] == nil {
		t.Fatal("arena Tuple's boxed value is not its header")
	}
	a.Reset()
	if t1[0] != nil {
		t.Fatal("Reset left a freed tuple header pinning its components")
	}
	if t2, b2 := a.Tuple(3); &t2[0] != &t1[0] || &b2.(Tuple)[0] != &t1[0] {
		t.Fatal("arena did not reuse the tuple header after Reset")
	}
	if v2 := a.Vec(8); &v2.(Vec)[0] != &v1.(Vec)[0] {
		t.Fatal("arena did not reuse the vec buffer after Reset")
	}
	if f2 := a.Flat(2, 8); f2 != f1 {
		t.Fatal("arena did not reuse the flat buffer after Reset")
	}
	// Distinct sizes come from distinct pools.
	if f3 := a.Flat(4, 4); f3 == f1 {
		t.Fatal("arena confused flat tuples of equal word count but different width")
	}
	// A nil arena degrades to plain allocation.
	var nilA *Arena
	if v := nilA.Vec(3); len(v.(Vec)) != 3 {
		t.Fatal("nil arena Vec broken")
	}
	if f := nilA.Flat(2, 3); f.W != 2 || f.M() != 3 {
		t.Fatal("nil arena Flat broken")
	}
	if tu, b := nilA.Tuple(2); len(tu) != 2 || len(b.(Tuple)) != 2 {
		t.Fatal("nil arena Tuple broken")
	}
	nilA.Reset()
}

// The zero-allocation invariant of the hot kernels, enforced as a test so
// a regression fails CI rather than just shifting a benchmark. Skipped
// under the race detector, whose instrumentation changes allocation
// behaviour.
func TestKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	check := func(t *testing.T, name string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, n)
		}
	}
	check(t, "Scalar ApplyFloat", func() { Add.ApplyFloat(2, 3) })

	// One block, and seventeen with a ragged tail: the per-block
	// temporaries of the derived kernels must stay on the stack.
	for _, m := range []int{256, 4099} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			// Pre-boxed: in the collectives the operands already live
			// behind the Value interface, so the kernels must add no
			// boxing of their own.
			a, b := Value(randVec(rng, m)), Value(randVec(rng, m))
			dst := Value(make(Vec, m))
			check(t, "Vec ApplyInto", func() { dst = Add.ApplyInto(dst, a, b) })
			one := Value(Scalar(1))
			check(t, "Vec×Scalar ApplyInto", func() { dst = Add.ApplyInto(dst, a, one) })
			check(t, "Scalar×Vec ApplyInto", func() { dst = Add.ApplyInto(dst, one, a) })

			sr2 := OpSR2(Mul, Add)
			fa, fb := flatOf(randTuple(rng, 2, m)), flatOf(randTuple(rng, 2, m))
			fdst := Value(NewFlatTuple(2, m))
			check(t, "op_sr2 flat ApplyInto", func() { fdst = sr2.ApplyInto(fdst, fa, fb) })

			sr := OpSR(Add)
			check(t, "op_sr flat ApplyUnaryIn", func() { fdst = sr.ApplyUnaryIn(nil, fdst, fa) })
			nosharing := OpSRNoSharing(Add)
			check(t, "op_sr_nosharing flat ApplyInto", func() { fdst = nosharing.ApplyInto(fdst, fa, fb) })

			ss := OpSS(Add)
			qa, qb := flatOf(randTuple(rng, 4, m)), flatOf(randTuple(rng, 4, m))
			ship := NewFlatTuple(3, m)
			check(t, "op_ss flat Ship+Lo+Hi", func() {
				ss.FlatShip(ship, qb)
				ss.FlatLo(qa, qa, ship)
				ss.FlatHi(qb, qb, ship)
			})

			// Boxed operands are flattened into arena buffers given back
			// after the call.
			ar := new(Arena)
			ba, bb := Value(randTuple(rng, 2, m)), Value(randTuple(rng, 2, m))
			check(t, "op_sr2 boxed ApplyIn", func() { fdst = sr2.ApplyIn(ar, fdst, ba, bb) })

			block := Value(randVec(rng, m))
			var qw, tw Value = qa, flatOf(randTuple(rng, 3, m))
			bss := OpCompBSS(Add)
			check(t, "op_comp_bss flat Repeat", func() { qw = bss.RepeatIn(nil, qw, 6, block) })
			bss2 := OpCompBSS2(Mul, Add)
			check(t, "op_comp_bss2 flat Repeat", func() { tw = bss2.RepeatIn(nil, tw, 6, block) })

			bsr := OpBSR(Add)
			check(t, "op_bsr flat iterate", func() { bsr.FlatF(fa, fa) })
			bsr2 := OpBSR2(Mul, Add)
			check(t, "op_bsr2 flat iterate", func() { bsr2.FlatF(fa, fa) })
		})
	}

	// Arena steady state: after one warm cycle, a get/reset cycle of the
	// same shapes touches only the free lists.
	const m = 256
	ar := new(Arena)
	cycle := func() {
		ar.Vec(m)
		ar.Vec(m)
		ar.Flat(2, m)
		ar.Flat(4, m)
		ar.Reset()
	}
	cycle()
	check(t, "arena steady-state cycle", cycle)
}

// form is one function of a derived operator in its boxed and flat forms;
// w holds the widths of its result and of its operands, 0 for a second
// operand it does not have.
type form struct {
	name  string
	w     [3]int
	boxed func(x, y Value) Value
	flat  func(dst, x, y *FlatTuple)
}

// derivedForms is every function of every derived operator built over ops,
// ⊗ and ⊕ ranging over every pair of them.
func derivedForms(ops ...*Op) []form {
	var fs []form
	binary := func(o *Op) {
		fs = append(fs, form{o.Name, [3]int{o.Arity, o.Arity, o.Arity}, o.Fn, o.FlatFn})
	}
	unary := func(name string, w, in int, boxed func(Value) Value, flat func(dst, x *FlatTuple)) {
		fs = append(fs, form{name, [3]int{w, in, 0},
			func(x, _ Value) Value { return boxed(x) },
			func(dst, x, _ *FlatTuple) { flat(dst, x) }})
	}
	repeat := func(r *RepeatOps) {
		unary(r.Name+" e", r.Arity, r.Arity, r.E, r.FlatE)
		unary(r.Name+" o", r.Arity, r.Arity, r.O, r.FlatO)
	}
	iter := func(o *IterOp) { unary(o.Name, o.Arity, o.Arity, o.F, o.FlatF) }
	for _, a := range ops {
		for _, b := range ops {
			binary(OpSR2(a, b))
			binary(OpNew(a, b))
			repeat(OpCompBSS2(a, b))
			iter(OpBSR2(a, b))
		}
		sr := OpSR(a)
		binary(sr)
		unary(sr.Name+" unary", sr.Arity, sr.Arity, sr.Unary, sr.FlatUnary)
		binary(OpSRNoSharing(a))
		ss := OpSS(a)
		unary(ss.Name+" ship", ss.ShipWidth, ss.Arity, ss.Ship, ss.FlatShip)
		fs = append(fs,
			form{ss.Name + " lo", [3]int{ss.Arity, ss.Arity, ss.ShipWidth}, ss.Lo, ss.FlatLo},
			form{ss.Name + " hi", [3]int{ss.Arity, ss.Arity, ss.ShipWidth}, ss.Hi, ss.FlatHi})
		repeat(OpCompBS(a))
		repeat(OpCompBSS(a))
		iter(OpBR(a))
		iter(OpBSR(a))
	}
	return fs
}

// checkForms fails t unless f's flat form on x and y (nil for none) gives
// the bits of its boxed form, into a fresh destination and into a copy of
// each operand as wide as the result.
func checkForms(t *testing.T, f form, x, y *FlatTuple) {
	t.Helper()
	var by Value
	if y != nil {
		by = Boxed(y)
	}
	want := f.boxed(Boxed(x), by)
	dst := NewFlatTuple(f.w[0], x.M())
	if f.flat(dst, x, y); !Identical(dst, want) {
		t.Fatalf("%s(%s, %v) = %s, boxed %s", f.name, x, y, dst, want)
	}
	if x.W == f.w[0] {
		in := x.Clone()
		if f.flat(in, in, y); !Identical(in, want) {
			t.Fatalf("%s in place of x (%s, %v) = %s, boxed %s", f.name, x, y, in, want)
		}
	}
	if y != nil && y.W == f.w[0] {
		in := y.Clone()
		if f.flat(in, x, in); !Identical(in, want) {
			t.Fatalf("%s in place of y (%s, %s) = %s, boxed %s", f.name, x, y, in, want)
		}
	}
}

// edgeValues are the floats on which a form that brackets, rounds or
// propagates differently from its reference shows: signed zeros and
// infinities, NaN, subnormals and the largest finite values, with two
// ordinary ones.
var edgeValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030,
	math.MaxFloat64, -math.MaxFloat64, 1, -1.5,
}

// TestFlatFormsMatchReferenceOnEdgeValues: every function of every derived
// operator over +, *, max and min gives its boxed form's bits on words
// drawn from edgeValues, at one word and across a block boundary, in place
// and out of place.
func TestFlatFormsMatchReferenceOnEdgeValues(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	edges := func(w, m int) *FlatTuple {
		if w == 0 {
			return nil
		}
		ft := NewFlatTuple(w, m)
		for i := range ft.Data {
			ft.Data[i] = edgeValues[rng.Intn(len(edgeValues))]
		}
		return ft
	}
	for _, f := range derivedForms(Add, Mul, Max, Min) {
		for _, m := range []int{1, 300} {
			checkForms(t, f, edges(f.w[1], m), edges(f.w[2], m))
		}
	}
}

// FuzzDerivedForms: on fuzzed words, every function of every derived
// operator over +, *, max and min gives its boxed form's bits, in place and
// out of place. which picks the function; data holds the operands' words,
// eight bytes each, as many lanes as fill every component.
func FuzzDerivedForms(f *testing.F) {
	forms := derivedForms(Add, Mul, Max, Min)
	var edges []byte
	for _, v := range edgeValues {
		edges = binary.LittleEndian.AppendUint64(edges, math.Float64bits(v))
	}
	for which := range forms {
		f.Add(uint16(which), edges)
	}
	f.Fuzz(func(t *testing.T, which uint16, data []byte) {
		fm := forms[int(which)%len(forms)]
		k := fm.w[1] + fm.w[2]
		m := len(data) / 8 / k
		if m == 0 {
			return
		}
		words := make([]float64, k*m)
		for i := range words {
			words[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		x := &FlatTuple{W: fm.w[1], Data: words[:fm.w[1]*m]}
		var y *FlatTuple
		if fm.w[2] > 0 {
			y = &FlatTuple{W: fm.w[2], Data: words[fm.w[1]*m:]}
		}
		checkForms(t, fm, x, y)
	})
}
