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

// The flat lanes. An operator with a flat kernel combines tuples of
// equal-length Vec blocks as flat tuples, as package coll's collectives do:
// a boxed operand is copied into a flat tuple drawn for the call and given
// back after it, and the result is a drawn flat tuple. A duplication stays a
// boxed tuple sharing its block, 56 bytes where a flat pair of 16-word
// blocks is 296, which keeps what a scratch holds under the verifier's pool
// cap. comcast and iter step a Vec block in one drawn flat tuple, and π₁
// copies a flat tuple's first block out. Every other consumer sees
// algebra.Boxed of a flat tuple, so one is never a component of a boxed
// tuple, and no function written for the boxed form (the lift of a base
// operator, which refuses one) meets it. Each flat kernel is bitwise its
// boxed form (algebra.Op.FlatFn's contract).

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

// flatShape reports that v is a tuple of w equal-length Vec blocks, flat or
// boxed, and returns the block length.
func flatShape(w int, v algebra.Value) (m int, ok bool) {
	switch x := v.(type) {
	case *algebra.FlatTuple:
		return x.M(), x.W == w
	case algebra.Tuple:
		if len(x) == w {
			_, m, ok = algebra.CanFlatten(x)
			return m, ok
		}
	}
	return 0, false
}

// flatten copies v, a tuple flatShape accepted, into dst.
func flatten(dst *algebra.FlatTuple, v algebra.Value) *algebra.FlatTuple {
	if t, ok := v.(*algebra.FlatTuple); ok {
		copy(dst.Data, t.Data)
		return dst
	}
	return dst.FlattenInto(v.(algebra.Tuple))
}

// asFlat is v, which flatShape accepted, as a flat tuple: v itself, or its
// boxed form copied into a drawn one, which drawn counts for giveBack.
func (sc *Scratch) asFlat(v algebra.Value, w, m int, drawn *int) *algebra.FlatTuple {
	if t, ok := v.(*algebra.FlatTuple); ok {
		return t
	}
	*drawn++
	return flatten(sc.Flat(w, m), v)
}

// fill copies v into every component of d, whose blocks are len(v) long.
func fill(d *algebra.FlatTuple, v algebra.Vec) {
	for i := 0; i < d.W; i++ {
		copy(d.Data[i*len(v):], v)
	}
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

// combine is op.Apply(a, b). An operator with a flat kernel on two tuples
// of its arity (flatShape) and a base operator on Vec and Scalar blocks, one
// of them a Vec, write their result into a buffer: a itself when intoA says
// a is one this evaluation drew, nothing else holds and the result fits,
// else one drawn for it. drawn reports that the result is such a buffer. A
// flat tuple meeting anything else is boxed, as Op.ApplyInto's own fallback
// boxes it.
func (sc *Scratch) combine(op *algebra.Op, a, b algebra.Value, intoA bool) (out algebra.Value, drawn bool) {
	m, ok := flatShape(op.Arity, a)
	if n, bok := flatShape(op.Arity, b); ok && bok && n == m && op.FlatFn != nil {
		dst, into := a.(*algebra.FlatTuple)
		if !intoA || !into {
			dst = sc.Flat(op.Arity, m)
		}
		temps := 0
		op.FlatFn(dst, sc.asFlat(a, op.Arity, m, &temps), sc.asFlat(b, op.Arity, m, &temps))
		sc.GiveBack(temps)
		return dst, true
	}
	_, af := a.(*algebra.FlatTuple)
	_, bf := b.(*algebra.FlatTuple)
	if af || bf {
		return op.Apply(algebra.Boxed(a), algebra.Boxed(b)), false
	}
	u, uv := a.(algebra.Vec)
	v, vv := b.(algebra.Vec)
	_, us := a.(algebra.Scalar)
	_, vs := b.(algebra.Scalar)
	n := max(len(u), len(v)) // mismatched lengths make Apply panic, as under Eval
	if op.Elem == nil || !(uv || us) || !(vv || vs) || n == 0 {
		return op.Apply(a, b), false
	}
	dst := a
	if !intoA || len(u) != n {
		dst = sc.Vec(n)
	}
	return op.ApplyInto(dst, a, b), true
}

// unary is op.ApplyUnary(b); on a tuple of the operator's arity (flatShape)
// with its flat kernel, into b itself when intoB says b is this
// evaluation's own, else into a drawn flat tuple.
func (sc *Scratch) unary(op *algebra.Op, b algebra.Value, intoB bool) (out algebra.Value, drawn bool) {
	if m, ok := flatShape(op.Arity, b); ok && op.FlatUnary != nil {
		dst, into := b.(*algebra.FlatTuple)
		if !intoB || !into {
			dst = sc.Flat(op.Arity, m)
		}
		temps := 0
		op.FlatUnary(dst, sc.asFlat(b, op.Arity, m, &temps))
		sc.GiveBack(temps)
		return dst, true
	}
	return op.ApplyUnary(algebra.Boxed(b)), false
}

// comcast fills out, position i with π₁(repeat(i, prepare b)). A Vec block
// is duplicated into one drawn flat tuple for each position in turn,
// stepped in place and its first block copied out, as coll.BcastRepeat
// steps it.
func (sc *Scratch) comcast(ops *algebra.RepeatOps, b algebra.Value, out []algebra.Value) {
	if v, ok := b.(algebra.Vec); ok && len(v) > 0 && ops.FlatE != nil && ops.FlatO != nil {
		w := sc.Flat(ops.Arity, len(v))
		for i := range out {
			fill(w, v)
			ops.RepeatInto(i, w)
			out[i] = first(&sc.Arena, w)
		}
		return
	}
	b = algebra.Boxed(b)
	for i := range out {
		out[i] = algebra.First(ops.Repeat(i, ops.Prepare(b)))
	}
}

// iter is π₁(f^(log₂ n)(prepare x)) for an n-list; a Vec block is stepped in
// place in one drawn flat tuple, as coll.Iter steps it.
func (sc *Scratch) iter(op *algebra.IterOp, x algebra.Value, n int) algebra.Value {
	if v, ok := x.(algebra.Vec); ok && len(v) > 0 && op.FlatF != nil {
		w := sc.Flat(op.Arity, len(v))
		fill(w, v)
		for k := 1; k < n; k <<= 1 {
			op.FlatF(w, w)
		}
		return first(&sc.Arena, w)
	}
	w := op.Prepare(algebra.Boxed(x))
	for k := 1; k < n; k <<= 1 {
		w = op.F(w)
	}
	return algebra.First(w)
}
