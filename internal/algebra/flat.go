package algebra

import "fmt"

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

// CanFlatten reports whether t has the shape FlatTuple represents — every
// component a Vec of the same non-zero length — returning the width and
// block length.
func CanFlatten(t Tuple) (w, m int, ok bool) {
	if len(t) == 0 {
		return 0, 0, false
	}
	for i, c := range t {
		v, isVec := c.(Vec)
		if !isVec || len(v) == 0 {
			return 0, 0, false
		}
		if i == 0 {
			m = len(v)
		} else if len(v) != m {
			return 0, 0, false
		}
	}
	return len(t), m, true
}

// FlattenInto copies the components of t into dst, which must have been
// sized by CanFlatten (dst.W == len(t), dst.M() == the common component
// length). It returns dst.
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
