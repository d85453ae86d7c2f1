package term

import "repro/internal/algebra"

// Scratch is reusable storage for Scratch.Eval; the zero value is ready. A
// Reset reclaims everything drawn since the previous one, so nothing an
// evaluation returned may be used after it. Not safe for concurrent use.
type Scratch struct {
	slab []algebra.Value // per-stage lists; Reset keeps the last slab only
	vecs *algebra.Arena  // the destinations of base-operator combines
	// drawn counts by length the vectors drawn since Reset, kept the most
	// one cycle drew, which is what vecs keeps.
	drawn, kept map[int]int
	tuples      map[int][]algebra.Value // free boxed tuples, by width
	used        []algebra.Value         // boxed tuples drawn since Reset
	held        int                     // bytes of the vectors and tuples kept
}

// Bytes of an interface value, of the slice header a boxed Vec or Tuple
// points to and of a word, on a 64-bit machine; and the first slab's length.
const valueBytes, headerBytes, wordBytes, minSlab = 16, 24, 8, 64

// Bytes is the storage sc keeps from one Reset to the next.
func (sc *Scratch) Bytes() int { return cap(sc.slab)*valueBytes + sc.held }

// Reset reclaims everything drawn from sc since the previous Reset.
func (sc *Scratch) Reset() {
	clear(sc.slab)
	sc.slab = sc.slab[:0]
	if sc.vecs != nil {
		sc.vecs.Reset()
		for n, c := range sc.drawn {
			if k := sc.kept[n]; c > k {
				sc.held += (c - k) * (headerBytes + n*wordBytes)
				sc.kept[n] = c
			}
		}
		clear(sc.drawn)
	}
	for _, boxed := range sc.used {
		t := boxed.(algebra.Tuple)
		clear(t)
		sc.tuples[len(t)] = append(sc.tuples[len(t)], boxed)
	}
	clear(sc.used)
	sc.used = sc.used[:0]
}

// list returns a list of n values for one stage's result.
func (sc *Scratch) list(n int) []algebra.Value {
	if sc == nil {
		return make([]algebra.Value, n)
	}
	lo := len(sc.slab)
	if lo+n > cap(sc.slab) {
		sc.slab, lo = make([]algebra.Value, 0, max(2*cap(sc.slab), n, minSlab)), 0
	}
	sc.slab = sc.slab[:lo+n]
	return sc.slab[lo : lo+n : lo+n]
}

// combine is op.Apply(a, b), into a vector drawn for it when a base
// operator combines Vec and Scalar blocks, one of them a Vec.
func (sc *Scratch) combine(op *algebra.Op, a, b algebra.Value) algebra.Value {
	if sc == nil || op.Elem == nil {
		return op.Apply(a, b)
	}
	x, xv := a.(algebra.Vec)
	y, yv := b.(algebra.Vec)
	_, xs := a.(algebra.Scalar)
	_, ys := b.(algebra.Scalar)
	n := max(len(x), len(y)) // mismatched lengths make Apply panic, as under Eval
	if !(xv || xs) || !(yv || ys) || n == 0 {
		return op.Apply(a, b)
	}
	if sc.vecs == nil {
		sc.vecs, sc.drawn, sc.kept = algebra.NewArena(), map[int]int{}, map[int]int{}
	}
	sc.drawn[n]++
	return op.ApplyInto(sc.vecs.Vec(n), a, b)
}

// duplications are the duplicating maps of §2.3, by the width they build.
var duplications = [...]*Fn{2: PairFn, 3: TripleFn, 4: QuadrupleFn}

// apply is f.F(x), into a pooled tuple when f is a duplication.
func (sc *Scratch) apply(f *Fn, x algebra.Value) algebra.Value {
	if sc != nil {
		for w, d := range duplications {
			if f == d {
				t, boxed := sc.tuple(w)
				for i := range t {
					t[i] = x
				}
				return boxed
			}
		}
	}
	return f.F(x)
}

// tuple returns a tuple of width w, and the same tuple as a Value.
func (sc *Scratch) tuple(w int) (algebra.Tuple, algebra.Value) {
	if sc == nil {
		t := make(algebra.Tuple, w)
		return t, t
	}
	var boxed algebra.Value
	if free := sc.tuples[w]; len(free) > 0 {
		boxed, sc.tuples[w] = free[len(free)-1], free[:len(free)-1]
	} else {
		if sc.tuples == nil {
			sc.tuples = map[int][]algebra.Value{}
		}
		boxed = make(algebra.Tuple, w)
		sc.held += headerBytes + w*valueBytes
	}
	sc.used = append(sc.used, boxed)
	return boxed.(algebra.Tuple), boxed
}
