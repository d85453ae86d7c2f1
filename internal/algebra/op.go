package algebra

import (
	"fmt"
	"math"
)

// Op is a binary base operator (the paper's ⊕, ⊗) or one of the derived
// tuple operators the optimization rules construct from base operators.
//
// Cost counts elementary base-operator applications per element of the
// underlying block, exactly as §4 of the paper counts them: a base
// operator costs 1, op_sr2 costs 3, op_sr costs 4 (with the uu sharing),
// op_ss costs 8, and so on. Arity is the tuple width the operator consumes
// (1 for base operators, 2 for op_sr2/op_sr, 4 for op_ss); the virtual
// machine uses Cost and Arity to charge computation time per combine.
type Op struct {
	// Name identifies the operator in printed terms and traces, e.g.
	// "+", "*", "op_sr2(+,*)".
	Name string
	// Cost is the number of elementary operations per block element.
	Cost int
	// Arity is the tuple width the operator consumes (1 for scalars/vecs).
	Arity int
	// Fn combines two values.
	Fn func(a, b Value) Value
	// Unary, if non-nil, is the one-sided case op((), b) that balanced
	// collectives apply at nodes with an empty left subtree (§3.2) or
	// at processors without a communication partner (§3.3).
	Unary func(b Value) Value
	// Elem, if non-nil, is the elementwise scalar function the operator
	// lifts (base operators only). It is the allocation-free kernel
	// behind ApplyFloat, and what the slice kernels loop over for a
	// NewBase operator.
	Elem func(x, y float64) float64
	// kern selects the slice kernel: a plain loop for the standard
	// operators, the Elem loop (the zero value) for any other.
	kern kernel
	// FlatFn, if non-nil, combines two flat tuples of width Arity into
	// dst without allocating. dst may alias a or b: kernels write a
	// component only after its last read. Results are bitwise identical
	// to Fn on the boxed form.
	FlatFn func(dst, a, b *FlatTuple)
	// FlatUnary, if non-nil, is the flat form of Unary.
	FlatUnary func(dst, b *FlatTuple)
}

// Apply combines a and b, propagating undetermined values: if either side
// is (or contains) Undef in a way the operator touches, the result is the
// operator's best effort; fully undetermined operands yield Undef.
func (o *Op) Apply(a, b Value) Value {
	if o.Fn == nil {
		panic(fmt.Sprintf("algebra: operator %q has no implementation", o.Name))
	}
	return o.Fn(a, b)
}

// ApplyUnary applies the one-sided case op((), b). It panics if the
// operator does not define one.
func (o *Op) ApplyUnary(b Value) Value {
	if o.Unary == nil {
		panic(fmt.Sprintf("algebra: operator %q has no one-sided case", o.Name))
	}
	return o.Unary(b)
}

// ApplyFloat applies a base operator to two scalars without boxing either
// operand or the result — the innermost kernel of the hot path. It panics
// on operators that do not carry an elementwise function.
func (o *Op) ApplyFloat(x, y float64) float64 {
	if o.Elem == nil {
		panic(fmt.Sprintf("algebra: operator %q has no elementwise kernel", o.Name))
	}
	return o.Elem(x, y)
}

// ApplyInto is ApplyIn with a nil arena: a destination that does not fit
// is allocated.
func (o *Op) ApplyInto(dst, a, b Value) Value { return o.ApplyIn(nil, dst, a, b) }

// ApplyIn combines a and b like Apply, in the representation algebra picks
// (see "The representation" in flat.go): two tuples of the operator's arity
// whose components are equal-length Vec blocks, flat or boxed, go through
// FlatFn; Vec and Scalar blocks, one of them a Vec, through the slice
// kernels; anything else through the reference Apply. A kernel writes into
// dst when it has the result's shape and into a buffer drawn from ar
// otherwise, so the fast paths allocate nothing. dst may alias a or b,
// because the kernels write an index only after its last read. ApplyIn is
// always exactly Apply up to representation.
//
// Which buffer may be rewritten is the caller's to say, through dst: it
// must not be one another rank may still read (see the arena ownership
// rules in docs/PERF.md).
func (o *Op) ApplyIn(ar *Arena, dst, a, b Value) Value {
	if o.FlatFn != nil {
		if m, ok := flatShape(o.Arity, a); ok {
			if n, ok := flatShape(o.Arity, b); ok && n == m {
				d := ar.flatDst(dst, o.Arity, m)
				x, i := ar.asFlat(a, o.Arity, m)
				y, j := ar.asFlat(b, o.Arity, m)
				o.FlatFn(d, x, y)
				ar.GiveBack(i + j)
				return d
			}
		}
	}
	switch x := a.(type) {
	case Vec:
		switch y := b.(type) {
		case Vec:
			if o.Elem != nil && len(x) == len(y) {
				d, out := ar.vecDst(dst, len(x))
				o.slice(d, x, y)
				return out
			}
		case Scalar:
			if o.Elem != nil {
				d, out := ar.vecDst(dst, len(x))
				o.sliceScalar(d, x, float64(y), false)
				return out
			}
		}
	case Scalar:
		switch y := b.(type) {
		case Scalar:
			if o.Elem != nil {
				return Scalar(o.Elem(float64(x), float64(y)))
			}
		case Vec:
			if o.Elem != nil {
				d, out := ar.vecDst(dst, len(y))
				o.sliceScalar(d, y, float64(x), true)
				return out
			}
		}
	}
	return o.Apply(Boxed(a), Boxed(b))
}

// ApplyUnaryIn is ApplyUnary in the representation algebra picks, with
// ApplyIn's contract: a tuple of the operator's arity goes through
// FlatUnary.
func (o *Op) ApplyUnaryIn(ar *Arena, dst, b Value) Value {
	if m, ok := flatShape(o.Arity, b); ok && o.FlatUnary != nil {
		d := ar.flatDst(dst, o.Arity, m)
		x, i := ar.asFlat(b, o.Arity, m)
		o.FlatUnary(d, x)
		ar.GiveBack(i)
		return d
	}
	return o.ApplyUnary(Boxed(b))
}

// Working is x as a state the kernels take, and the dst that may rewrite
// it: a flat tuple FlatFn takes as it is, with nil, as the caller does not
// own it; a boxed one copied into a flat tuple drawn from ar, twice; else x
// boxed, with nil (docs/PERF.md, "Arenas and ownership").
func (o *Op) Working(ar *Arena, x Value) (state, dst Value) {
	return ar.working(o.FlatFn != nil, o.Arity, x)
}

// LaneWise reports that o acts on each word of a block by itself: a base
// operator through its scalar function, a derived one through the flat
// kernel it has exactly when it was built from such operators (and which
// the TestFlat* tests hold bitwise to its boxed form).
func (o *Op) LaneWise() bool { return o.Elem != nil || o.FlatFn != nil }

// kernel names the loop body of a base operator's slice kernel.
type kernel uint8

const (
	kernElem kernel = iota // any NewBase operator: call Elem per element
	kernAdd
	kernMul
	kernMax
	kernMin
	kernLeft
	kernSub
)

// slice is the slice kernel of a base operator: dst[i] = x[i] op y[i] for
// every i of dst, with x and y at least as long. It is one call per block
// of words where the Elem loops it replaces made one indirect call per
// word, and everything hot in this package is built from it. Three rules
// keep it exactly Elem in another shape:
//
//   - Order: one elementary operation per element, the operator's own
//     expression on the same operands, so the result is bitwise Elem's. A
//     derived kernel composes separate passes, never a fused expression
//     (which arm64 would contract into a multiply-add and round once).
//   - Aliasing: dst may be x or y themselves (element i is read before
//     it is written) but must not overlap them at an offset.
//   - Direct call: the operator is a switch inside this one method, not a
//     func-valued field, so the compiler sees that the slices do not
//     escape and a caller's stack block stays on its stack.
func (o *Op) slice(dst, x, y []float64) {
	x, y = x[:len(dst)], y[:len(dst)]
	switch o.kern {
	case kernAdd:
		for i := range dst {
			dst[i] = x[i] + y[i]
		}
	case kernMul:
		for i := range dst {
			dst[i] = x[i] * y[i]
		}
	case kernMax:
		for i := range dst {
			dst[i] = math.Max(x[i], y[i])
		}
	case kernMin:
		for i := range dst {
			dst[i] = math.Min(x[i], y[i])
		}
	case kernLeft:
		copy(dst, x)
	case kernSub:
		for i := range dst {
			dst[i] = x[i] - y[i]
		}
	default:
		f := o.Elem
		for i := range dst {
			dst[i] = f(x[i], y[i])
		}
	}
}

// sliceScalar is slice with one operand broadcast: dst[i] = x[i] op s, or
// s op x[i] when left says the scalar is the left operand. The same three
// rules hold; the operands keep their sides, so it is bitwise Elem's on a
// non-commutative operator too.
func (o *Op) sliceScalar(dst, x []float64, s float64, left bool) {
	x = x[:len(dst)]
	switch {
	case o.kern == kernAdd && left:
		for i := range dst {
			dst[i] = s + x[i]
		}
	case o.kern == kernAdd:
		for i := range dst {
			dst[i] = x[i] + s
		}
	case o.kern == kernMul && left:
		for i := range dst {
			dst[i] = s * x[i]
		}
	case o.kern == kernMul:
		for i := range dst {
			dst[i] = x[i] * s
		}
	case o.kern == kernMax && left:
		for i := range dst {
			dst[i] = math.Max(s, x[i])
		}
	case o.kern == kernMax:
		for i := range dst {
			dst[i] = math.Max(x[i], s)
		}
	case o.kern == kernMin && left:
		for i := range dst {
			dst[i] = math.Min(s, x[i])
		}
	case o.kern == kernMin:
		for i := range dst {
			dst[i] = math.Min(x[i], s)
		}
	case o.kern == kernLeft && left:
		for i := range dst {
			dst[i] = s
		}
	case o.kern == kernLeft:
		copy(dst, x)
	case o.kern == kernSub && left:
		for i := range dst {
			dst[i] = s - x[i]
		}
	case o.kern == kernSub:
		for i := range dst {
			dst[i] = x[i] - s
		}
	case left:
		f := o.Elem
		for i := range dst {
			dst[i] = f(s, x[i])
		}
	default:
		f := o.Elem
		for i := range dst {
			dst[i] = f(x[i], s)
		}
	}
}

// Charge is the computation time, in the paper's unit-cost model, of one
// application of the operator to value a: Cost elementary operations per
// element of the underlying block of m words. For a tuple of width Arity
// holding components of m words each, that is Cost·m.
func (o *Op) Charge(a Value) float64 {
	return float64(o.Cost) * float64(a.Words()/max(o.Arity, 1))
}

func (o *Op) String() string { return o.Name }

// lift applies a scalar function elementwise across the supported value
// shapes, propagating Undef. A Scalar paired with a Vec broadcasts over
// the vector's elements.
func lift(name string, f func(x, y float64) float64) func(a, b Value) Value {
	var apply func(a, b Value) Value
	apply = func(a, b Value) Value {
		if IsUndef(a) || IsUndef(b) {
			return Undef{}
		}
		switch x := a.(type) {
		case Scalar:
			switch y := b.(type) {
			case Scalar:
				return Scalar(f(float64(x), float64(y)))
			case Vec:
				out := make(Vec, len(y))
				for i := range y {
					out[i] = f(float64(x), y[i])
				}
				return out
			}
			panic(fmt.Sprintf("algebra: %s applied to mismatched shapes %T and %T", name, a, b))
		case Vec:
			switch y := b.(type) {
			case Scalar:
				out := make(Vec, len(x))
				for i := range x {
					out[i] = f(x[i], float64(y))
				}
				return out
			case Vec:
				if len(x) != len(y) {
					panic(fmt.Sprintf("algebra: %s applied to mismatched vectors %s and %s", name, a, b))
				}
				out := make(Vec, len(x))
				for i := range x {
					out[i] = f(x[i], y[i])
				}
				return out
			}
			panic(fmt.Sprintf("algebra: %s applied to mismatched shapes %T and %T", name, a, b))
		case Tuple:
			y, ok := b.(Tuple)
			if !ok || len(x) != len(y) {
				panic(fmt.Sprintf("algebra: %s applied to mismatched tuples %s and %s", name, a, b))
			}
			out := make(Tuple, len(x))
			for i := range x {
				out[i] = apply(x[i], y[i])
			}
			return out
		}
		panic(fmt.Sprintf("algebra: %s applied to unsupported value %T", name, a))
	}
	return apply
}

// NewBase constructs a base binary operator applying f elementwise.
func NewBase(name string, f func(x, y float64) float64) *Op {
	return &Op{Name: name, Cost: 1, Arity: 1, Fn: lift(name, f), Elem: f}
}

// standard is NewBase for an operator whose slice kernel is written out:
// f must be the expression of k's loop body.
func standard(name string, k kernel, f func(x, y float64) float64) *Op {
	op := NewBase(name, f)
	op.kern = k
	return op
}

// The standard base operators of the paper's examples. Add and Mul are the
// op1/op2 of program Example; Max and Add form the max/+ (tropical) pair
// used by the maximum-segment-sum example, where + distributes over max.
var (
	// Add is elementwise addition (associative, commutative; unit 0).
	Add = standard("+", kernAdd, func(x, y float64) float64 { return x + y })
	// Mul is elementwise multiplication (associative, commutative;
	// unit 1; distributes over Add).
	Mul = standard("*", kernMul, func(x, y float64) float64 { return x * y })
	// Max is elementwise maximum (associative, commutative, idempotent).
	Max = standard("max", kernMax, func(x, y float64) float64 { return math.Max(x, y) })
	// Min is elementwise minimum (associative, commutative, idempotent).
	Min = standard("min", kernMin, func(x, y float64) float64 { return math.Min(x, y) })
	// Left is left projection: Left(a,b) = a. It is associative but not
	// commutative, and exists so tests can exercise rule conditions
	// that must reject non-commutative operators.
	Left = standard("left", kernLeft, func(x, _ float64) float64 { return x })
	// Sub is elementwise subtraction: non-associative, non-commutative;
	// it exists so tests can exercise condition rejection.
	Sub = standard("-", kernSub, func(x, y float64) float64 { return x - y })
)
