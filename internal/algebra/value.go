// Package algebra provides the value model and operator algebra underlying
// the collective-operation framework of Gorlatch, Wedler and Lengauer
// (IPPS'99): scalar and vector values, tuple values produced by the
// auxiliary-variable technique (pair/triple/quadruple, §2.3 of the paper),
// binary operators with algebraic-property tracking, and the derived
// operators op_sr2, op_sr, op_ss, op_br, op_bsr2, op_bsr and the
// comcast e/o function pairs defined by the optimization rules of §3.
package algebra

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Value is one processor's datum: the element of the global list that the
// functional framework of §2.2 manipulates. Words reports the size of the
// value in machine words; it determines message cost (m in the paper's
// cost model) when the value is communicated.
type Value interface {
	// Words is the size of the value in machine words.
	Words() int
	// String renders the value for traces and error messages.
	String() string
}

// Scalar is a single-word value. Integral float64 values are exact, which
// the test-suite relies on for verifying semantic equalities.
type Scalar float64

// Words reports the size of a scalar: one word.
func (Scalar) Words() int { return 1 }

func (s Scalar) String() string {
	return strconv.FormatFloat(float64(s), 'g', -1, 64)
}

// Vec is a block of m words, the per-processor block the paper calls a
// "segment of length m".
type Vec []float64

// Words reports the block length m.
func (v Vec) Words() int { return len(v) }

func (v Vec) String() string {
	if len(v) > 8 {
		return fmt.Sprintf("vec[%d]", len(v))
	}
	parts := make([]string, len(v))
	for i, x := range v {
		parts[i] = strconv.FormatFloat(x, 'g', -1, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// Clone returns a copy of the vector, so destructive consumers cannot
// alias the original block.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Tuple is the auxiliary-variable construction of §2.3: a fixed-width
// bundle of component values. Pair, Triple and Quadruple build the widths
// used by the optimization rules.
type Tuple []Value

// Words is the total size of all components.
func (t Tuple) Words() int {
	n := 0
	for _, v := range t {
		n += v.Words()
	}
	return n
}

func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// Undef is the undetermined value the paper writes as "_": the don't-care
// slots of bcast inputs, the poisoned tuple components of scan_balanced on
// non-power-of-two machines (§3.3), and the non-root results of iter
// (§3.5). Any operator application involving Undef yields Undef.
type Undef struct{}

// Words reports zero: an undetermined value costs nothing to ship because
// it never is shipped — it only marks slots whose content is irrelevant.
func (Undef) Words() int { return 0 }

func (Undef) String() string { return "_" }

// IsUndef reports whether v is the undetermined value, or a tuple any of
// whose components is undetermined. A FlatTuple is never undetermined.
func IsUndef(v Value) bool {
	switch x := v.(type) {
	case Undef:
		return true
	case Tuple:
		for _, c := range x {
			if IsUndef(c) {
				return true
			}
		}
	}
	return false
}

// Pair duplicates a value into a 2-tuple: pair a = (a, a). Equation (9).
func Pair(a Value) Value { return Tuple{a, a} }

// Triple duplicates a value into a 3-tuple: triple a = (a, a, a).
// Equation (10).
func Triple(a Value) Value { return Tuple{a, a, a} }

// Quadruple duplicates a value into a 4-tuple: quadruple a = (a, a, a, a).
// Equation (11).
func Quadruple(a Value) Value { return Tuple{a, a, a, a} }

// First extracts the first component of a tuple (the paper's projection
// π₁, equation (12)). Applied to a non-tuple it is the identity, mirroring
// the paper's overloading of π₁ over tuples of any width. Of a flat tuple
// it is a view, which nothing may write while it is live, boxed once and
// kept with the tuple while that still views Data's first block.
func First(a Value) Value {
	switch t := a.(type) {
	case *FlatTuple:
		t.mustOwn()
		if v, _ := t.first.Load().(Vec); len(v) != t.M() || &v[0] != &t.Data[0] {
			t.first.Store(t.Comp(0))
		}
		return t.first.Load().(Value)
	case Tuple:
		if len(t) > 0 {
			return t[0]
		}
	}
	return a
}

// Equal reports deep equality of two values. Undef equals only Undef. A
// FlatTuple equals the boxed Tuple it represents: the two are the same
// value in different representations.
func Equal(a, b Value) bool {
	a, b = Boxed(a), Boxed(b)
	switch x := a.(type) {
	case Undef:
		_, ok := b.(Undef)
		return ok
	case Scalar:
		y, ok := b.(Scalar)
		return ok && x == y
	case Vec:
		y, ok := b.(Vec)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	case Tuple:
		y, ok := b.(Tuple)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	case Mat:
		y, ok := b.(Mat)
		return ok && EqualMat(x, y)
	}
	return false
}

// Identical reports that a and b are the same bit for bit, which Equal's
// == is not: -0 and +0 differ (1/x tells them apart) while a NaN is
// identical to a NaN of the same bits. It is representation-blind as Equal
// is: a flat tuple is identical to the tuple it represents in either form.
// Undef is identical to Undef only.
func Identical(a, b Value) bool {
	x, xf := a.(*FlatTuple)
	y, yf := b.(*FlatTuple)
	if xf && yf {
		return x.W == y.W && identicalWords(x.Data, y.Data)
	}
	if xf || yf {
		a, b = Boxed(a), Boxed(b)
	}
	switch x := a.(type) {
	case Undef:
		_, ok := b.(Undef)
		return ok
	case Scalar:
		y, ok := b.(Scalar)
		return ok && math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	case Vec:
		y, ok := b.(Vec)
		return ok && identicalWords(x, y)
	case Tuple:
		y, ok := b.(Tuple)
		return ok && IdenticalLists(x, y)
	case Mat:
		y, ok := b.(Mat)
		return ok && x.R == y.R && x.C == y.C && identicalWords(x.Data, y.Data)
	}
	return false
}

// IdenticalLists applies Identical pointwise to two value lists of the same
// length.
func IdenticalLists(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Identical(a[i], b[i]) {
			return false
		}
	}
	return true
}

func identicalWords(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}

// EqualModuloUndef reports equality of two values ignoring positions where
// either side is undetermined: EqualApproxModuloUndef without a tolerance.
func EqualModuloUndef(a, b Value) bool { return EqualApproxModuloUndef(a, b, 0) }

// EqualApproxModuloUndef reports equality of two values ignoring positions
// where either side is undetermined, with a relative tolerance on numeric
// components. The optimization rules only guarantee the determined parts of
// their results, so rule verification compares with this relaxed equality;
// and reassociating floating-point reductions (as the balanced collectives
// do) can flip low-order bits even though the algebraic equality is exact,
// which verification over random inputs must not report as a semantic
// difference. With a tolerance of 0 numbers compare as ==, and an infinity
// equals only itself at any tolerance.
func EqualApproxModuloUndef(a, b Value, relTol float64) bool {
	a, b = Boxed(a), Boxed(b)
	if IsUndef(a) || IsUndef(b) {
		if ta, ok := a.(Tuple); ok {
			if tb, ok := b.(Tuple); ok && len(ta) == len(tb) {
				for i := range ta {
					if !EqualApproxModuloUndef(ta[i], tb[i], relTol) {
						return false
					}
				}
				return true
			}
		}
		if _, ok := a.(Undef); ok {
			return true
		}
		if _, ok := b.(Undef); ok {
			return true
		}
	}
	switch x := a.(type) {
	case Scalar:
		y, ok := b.(Scalar)
		return ok && approxEq(float64(x), float64(y), relTol)
	case Vec:
		y, ok := b.(Vec)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !approxEq(x[i], y[i], relTol) {
				return false
			}
		}
		return true
	case Tuple:
		y, ok := b.(Tuple)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if !EqualApproxModuloUndef(x[i], y[i], relTol) {
				return false
			}
		}
		return true
	}
	return Equal(a, b)
}

// approxEq reports x == y, or |x − y| ≤ relTol·max(|x|, |y|) with that
// scale finite: an infinity, where both sides of the bound are infinite,
// equals only itself.
func approxEq(x, y, relTol float64) bool {
	if x == y {
		return true
	}
	scale := max(math.Abs(x), math.Abs(y))
	return math.Abs(x-y) <= relTol*scale && scale <= math.MaxFloat64
}

// EqualLists applies Equal pointwise to two value lists of the same length.
func EqualLists(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// EqualListsModuloUndef applies EqualModuloUndef pointwise.
func EqualListsModuloUndef(a, b []Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !EqualModuloUndef(a[i], b[i]) {
			return false
		}
	}
	return true
}
