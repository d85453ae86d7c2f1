package term

import "repro/internal/algebra"

// Scratch is reusable storage for Scratch.Eval; the zero value is ready. It
// draws its buffers from the arena it embeds and cuts per-stage lists from
// a slab. A Reset reclaims everything drawn since the previous one, so
// nothing an evaluation returned may be used after it. Not safe for
// concurrent use.
type Scratch struct {
	algebra.Arena
	slab []algebra.Value // Reset keeps the last slab only
}

// Bytes of an interface value on a 64-bit machine, and the first slab's
// length.
const valueBytes, minSlab = 16, 64

// Bytes is the storage sc keeps from one Reset to the next.
func (sc *Scratch) Bytes() int { return sc.Arena.Bytes() + cap(sc.slab)*valueBytes }

// Reset reclaims everything drawn from sc since the previous Reset.
func (sc *Scratch) Reset() {
	clear(sc.slab)
	sc.slab = sc.slab[:0]
	sc.Arena.Reset()
}

// list returns a list of n values for one stage's result.
func (sc *Scratch) list(n int) []algebra.Value {
	lo := len(sc.slab)
	if lo+n > cap(sc.slab) {
		sc.slab, lo = make([]algebra.Value, 0, max(cap(sc.slab)*3/2, n, minSlab)), 0
	}
	sc.slab = sc.slab[:lo+n]
	return sc.slab[lo : lo+n : lo+n]
}

// Flat tuples. The operators pick their representation (package algebra,
// "The representation"); the evaluator lends them its arena. A duplication
// stays a boxed tuple sharing its block, 56 bytes where a flat pair of
// 16-word blocks is 296, which keeps a scratch under the verifier's pool
// cap.

// boxAll is xs with every flat tuple boxed: xs itself when there is none.
func (sc *Scratch) boxAll(xs []algebra.Value) []algebra.Value {
	for i, x := range xs {
		if _, ok := x.(*algebra.FlatTuple); ok {
			out := sc.list(len(xs))
			copy(out, xs[:i])
			for j := i; j < len(xs); j++ {
				out[j] = algebra.Boxed(xs[j])
			}
			return out
		}
	}
	return xs
}

// first is π₁ of a flat tuple: its first block, copied into a block of
// a's (a view would box a slice header).
func first(a *algebra.Arena, t *algebra.FlatTuple) algebra.Value {
	d := a.Vec(t.M())
	copy(d.(algebra.Vec), t.Data)
	return d
}

// repeats reports that f applied to x may reuse what it made of prev: for a
// function whose results Apply draws from the arena, when x is prev — one
// flat tuple, one block or tuple, or both undetermined, as after bcast,
// allreduce and reduce.
func (sc *Scratch) repeats(f *Fn, x, prev algebra.Value) bool {
	if f.Into == nil && f != FirstFn && duplicates(f) == 0 {
		return false
	}
	switch a := x.(type) {
	case *algebra.FlatTuple:
		b, ok := prev.(*algebra.FlatTuple)
		return ok && a == b
	case algebra.Vec:
		b, ok := prev.(algebra.Vec)
		return ok && len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
	case algebra.Tuple:
		b, ok := prev.(algebra.Tuple)
		return ok && len(a) > 0 && len(a) == len(b) && &a[0] == &b[0]
	case algebra.Undef:
		_, ok := prev.(algebra.Undef)
		return ok
	}
	return false
}
