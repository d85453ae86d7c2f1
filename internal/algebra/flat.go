package algebra

import "fmt"

// The representation. A tuple of equal-length Vec blocks has a boxed form
// and a flat one, and algebra alone picks: every entry taking an arena (Op
// ApplyIn, ApplyUnaryIn, Working; BalancedScanOp Working, ShipIn, NodeIn;
// RepeatOps RepeatIn, StepIn; IterOp IterateIn) runs the operator's flat
// kernel when the shapes allow and its boxed reference otherwise, boxing
// any flat operand. A boxed operand a kernel takes is copied into a flat
// tuple drawn for the call and given back after it, and a Vec block a
// repeat or iteration starts from is duplicated into a drawn working
// state; a kernel writes into dst when it fits, else into a drawn flat
// tuple. The caller owns the buffers: it says which one may be rewritten
// by passing it as dst. Each kernel is bitwise its boxed form (the TestFlat*
// tests), so the choice never shows in a result. A flat tuple never holds
// Undef, and no function written for the boxed form (the lift of a base
// operator, which refuses one) meets it: callers box one first.

// FlatTuple is the unboxed representation of a width-W tuple whose
// components are equal-length blocks: one backing []float64 holding the W
// components contiguously. It is the working form the derived operators
// (op_sr2, op_ss, …) combine in the hot path — a single buffer the
// in-place kernels can fill without allocating a Tuple cell and a fresh
// Vec per component, per application.
//
// A FlatTuple is interchangeable with the boxed Tuple it represents:
// Boxed converts back (the component Vecs are views into the backing
// array, not copies), and the Equal/IsUndef/First helpers of this package
// treat the two representations as the same value. By construction a
// FlatTuple never holds Undef — collectives that poison components (the
// Solo case of scan_balanced) switch back to the boxed form first.
type FlatTuple struct {
	// W is the tuple width (number of components).
	W int
	// Data holds the W components contiguously: component i is
	// Data[i*m : (i+1)*m] with m = len(Data)/W.
	Data []float64
	// moved marks a tuple whose backing storage has been transferred to
	// another rank through an ownership-moving send (coll.Comm.SendMove): the
	// sender must not observe the value again, and the accessors enforce
	// that by panicking. The receiver clears the flag on adoption — it is
	// the new owner. See docs/PERF.md, "Zero-copy ownership rules".
	moved bool
}

// MarkMoved poisons the tuple after an ownership-transferring send: any
// later access by the old owner panics. Transports set it; collectives
// never do directly.
func (t *FlatTuple) MarkMoved() { t.moved = true }

// MarkOwned clears the moved poison on adoption by the receiving rank
// (or when an arena re-issues a reclaimed buffer as fresh scratch).
func (t *FlatTuple) MarkOwned() { t.moved = false }

// IsMoved reports whether the tuple's storage has been moved away.
func (t *FlatTuple) IsMoved() bool { return t.moved }

// mustOwn panics when the tuple has been moved away — the double-use
// guard of the ownership protocol.
func (t *FlatTuple) mustOwn() {
	if t.moved {
		panic("algebra: use of a FlatTuple after its ownership was moved by Send")
	}
}

// NewFlatTuple allocates a flat tuple of w components of m words each.
func NewFlatTuple(w, m int) *FlatTuple {
	if w < 1 || m < 1 {
		panic(fmt.Sprintf("algebra: flat tuple needs w ≥ 1, m ≥ 1, got %d×%d", w, m))
	}
	return &FlatTuple{W: w, Data: make([]float64, w*m)}
}

// M is the component block length.
func (t *FlatTuple) M() int { return len(t.Data) / t.W }

// Comp is component i as a Vec view into the backing array (no copy).
func (t *FlatTuple) Comp(i int) Vec {
	t.mustOwn()
	m := t.M()
	return Vec(t.Data[i*m : (i+1)*m : (i+1)*m])
}

// Words is the total size: the sum over the component blocks.
func (t *FlatTuple) Words() int { return len(t.Data) }

func (t *FlatTuple) String() string { return t.Tuple().String() }

// Tuple is the boxed form: a Tuple of Vec views into the backing array.
func (t *FlatTuple) Tuple() Tuple {
	t.mustOwn()
	out := make(Tuple, t.W)
	for i := 0; i < t.W; i++ {
		out[i] = t.Comp(i)
	}
	return out
}

// Clone returns an independent copy with its own backing array.
func (t *FlatTuple) Clone() *FlatTuple {
	t.mustOwn()
	data := make([]float64, len(t.Data))
	copy(data, t.Data)
	return &FlatTuple{W: t.W, Data: data}
}

// Boxed returns v with a flat tuple expanded to the boxed Tuple form
// (a width-1 flat tuple is simply its single Vec — this algebra has no
// 1-tuples); every other value passes through unchanged. It is the
// normalization point where the zero-allocation working representation
// rejoins the reference semantics.
func Boxed(v Value) Value {
	if ft, ok := v.(*FlatTuple); ok {
		if ft.W == 1 {
			return ft.Comp(0)
		}
		return ft.Tuple()
	}
	return v
}

// FlattenInto copies the components of t into dst, which must have one
// component of dst.M() words for each of t's, all Vecs. It returns dst.
func (dst *FlatTuple) FlattenInto(t Tuple) *FlatTuple {
	dst.mustOwn()
	m := dst.M()
	if dst.W != len(t) {
		panic(fmt.Sprintf("algebra: flattening %d-tuple into width-%d flat tuple", len(t), dst.W))
	}
	for i, c := range t {
		v := c.(Vec)
		if len(v) != m {
			panic(fmt.Sprintf("algebra: flattening component of %d words into %d-word block", len(v), m))
		}
		copy(dst.Data[i*m:(i+1)*m], v)
	}
	return dst
}

// flatShape reports that v has the shape a FlatTuple represents, w Vec
// components of one non-zero length, flat or boxed, and returns that
// length.
func flatShape(w int, v Value) (m int, ok bool) {
	switch x := v.(type) {
	case *FlatTuple:
		return x.M(), x.W == w
	case Tuple:
		for i, c := range x {
			b, isVec := c.(Vec)
			if !isVec || len(b) == 0 || i > 0 && len(b) != m {
				return 0, false
			}
			m = len(b)
		}
		return m, len(x) == w && w > 0
	}
	return 0, false
}

// asFlat is v, a tuple flatShape accepted, as a flat tuple: v itself, or
// its boxed form copied into one drawn from a, which drew counts.
func (a *Arena) asFlat(v Value, w, m int) (t *FlatTuple, drew int) {
	if t, ok := v.(*FlatTuple); ok {
		return t, 0
	}
	return a.Flat(w, m).FlattenInto(v.(Tuple)), 1
}

// working is x copied into a flat tuple drawn from a when kernels says the
// operator has flat kernels and x is a tuple of w equal-length Vec blocks,
// else x boxed.
func (a *Arena) working(kernels bool, w int, x Value) Value {
	x = Boxed(x)
	if m, ok := flatShape(w, x); ok && kernels {
		return a.Flat(w, m).FlattenInto(x.(Tuple))
	}
	return x
}

// flatDst is dst when it is a flat tuple of w components of m words, else
// one drawn from a.
func (a *Arena) flatDst(dst Value, w, m int) *FlatTuple {
	if d, ok := dst.(*FlatTuple); ok && d.W == w && len(d.Data) == w*m {
		return d
	}
	return a.Flat(w, m)
}

// vecDst is dst when it is a Vec of n words, else a block drawn from a,
// with its pre-boxed interface value, so the fast path boxes nothing.
func (a *Arena) vecDst(dst Value, n int) (Vec, Value) {
	if d, ok := dst.(Vec); ok && len(d) == n {
		return d, dst
	}
	v := a.Vec(n)
	return v.(Vec), v
}

// prepare is prep(x) as a working state: a Vec block duplicated into a
// flat tuple of w blocks, dst when it has that shape or one drawn from a,
// when kernels says the operator has flat kernels; the boxed prep(x)
// otherwise.
func (a *Arena) prepare(dst Value, kernels bool, w int, prep func(Value) Value, x Value) Value {
	v, ok := x.(Vec)
	if !ok || len(v) == 0 || !kernels {
		return prep(Boxed(x))
	}
	d := a.flatDst(dst, w, len(v))
	for i := 0; i < w; i++ {
		copy(d.Data[i*len(v):], v)
	}
	return d
}
