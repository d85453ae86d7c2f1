package term

import (
	"fmt"

	"repro/internal/algebra"
)

// Eval computes the functional semantics of a term on an input list with
// one value per processor, per equations (4)–(8) of the paper. It is the
// machine-independent reference the optimization rules are equalities
// over; the machine executor in package core must agree with it on the
// determined positions (package rules verifies that they do).
//
// Eval is Scratch.Eval in a scratch of its own, which is never reset, with
// every flat tuple of the result boxed: what it returns is the caller's to
// keep.
func Eval(t Term, xs []algebra.Value) []algebra.Value {
	out := new(Scratch).Eval(t, xs)
	for i, x := range out { // out is xs itself when t has no stage
		if _, ok := x.(*algebra.FlatTuple); ok {
			out[i] = algebra.Boxed(x)
		}
	}
	return out
}

// Eval is the package-level Eval with its storage drawn from sc: per-stage
// lists; the blocks that base operators, and functions with Into, write on
// Vec and Scalar blocks; the tuples of pair, triple, quadruple and gather;
// and the flat tuples derived operators, comcast, iter and the balanced
// scan compute in (the flat lanes, scratch.go). The rest allocates. A
// buffer is written by the stage that drew it only, before another stage
// or list position can see it, and a map whose argument repeats the
// previous position's (after bcast, say) repeats its result. A flat tuple
// stands for the boxed tuple it represents, and the results are valid
// until the next Reset.
func (sc *Scratch) Eval(t Term, xs []algebra.Value) []algebra.Value {
	if len(xs) == 0 {
		return nil
	}
	switch s := t.(type) {
	case Seq:
		cur := xs
		for _, sub := range s {
			cur = sc.Eval(sub, cur)
		}
		return cur
	case Map:
		out := sc.list(len(xs))
		for i, x := range xs {
			if i > 0 && sc.repeats(s.F, x, xs[i-1]) {
				out[i] = out[i-1]
				continue
			}
			out[i] = Apply(&sc.Arena, s.F, x)
		}
		return out
	case MapIdx:
		out := sc.list(len(xs))
		for i, x := range xs {
			out[i] = s.F.F(i, algebra.Boxed(x))
		}
		return out
	case Scan:
		out := sc.list(len(xs))
		out[0] = xs[0]
		for i := 1; i < len(xs); i++ {
			out[i], _ = sc.combine(s.Op, out[i-1], xs[i], false)
		}
		return out
	case ScanBal:
		return sc.scanBalanced(s.Op, xs)
	case Reduce:
		var y algebra.Value
		if s.Balanced {
			h := 0
			for 1<<h < len(xs) {
				h++
			}
			y, _ = sc.reduceBalanced(s.Op, xs, 0, len(xs), h)
		} else {
			// Only the last partial result is kept, so every combine after
			// the first writes over the one before.
			y = xs[0]
			drawn := false
			for _, x := range xs[1:] {
				y, drawn = sc.combine(s.Op, y, x, drawn)
			}
		}
		out := sc.list(len(xs))
		if s.All {
			for i := range out {
				out[i] = y
			}
		} else {
			// Equation (5) writes reduce(⊕)[x1,…,xn] = [y, x2, …, xn],
			// but the optimization rules are equalities only if the
			// non-root positions are don't-cares — which they are in
			// MPI, where non-root receive buffers are undefined. We
			// therefore mark them undetermined; a program that reads a
			// non-root value after a reduce is erroneous.
			out[0] = y
			for i := 1; i < len(out); i++ {
				out[i] = algebra.Undef{}
			}
		}
		return out
	case Bcast:
		out := sc.list(len(xs))
		for i := range out {
			out[i] = xs[0]
		}
		return out
	case Gather:
		out := sc.list(len(xs))
		list, boxed := sc.Tuple(len(xs))
		for i, x := range xs {
			list[i] = algebra.Boxed(x)
		}
		out[0] = boxed
		for i := 1; i < len(out); i++ {
			out[i] = algebra.Undef{}
		}
		return out
	case Scatter:
		first := algebra.Boxed(xs[0])
		list, ok := first.(algebra.Tuple)
		if !ok || len(list) != len(xs) {
			panic(fmt.Sprintf("term: scatter needs a %d-component list on the first processor, got %v", len(xs), first))
		}
		out := sc.list(len(xs))
		copy(out, list)
		return out
	case Comcast:
		out := sc.list(len(xs))
		sc.comcast(s.Ops, xs[0], out)
		return out
	case Halo:
		return evalHalo(s.H, sc.boxAll(xs))
	case AllGatherV:
		return evalAllGatherV(s.Counts, sc.boxAll(xs))
	case ReduceScatterV:
		return evalReduceScatterV(s.Op, s.Counts, sc.boxAll(xs))
	case Iter:
		out := sc.list(len(xs))
		out[0] = sc.iter(s.Op, xs[0], len(xs))
		for i := 1; i < len(xs); i++ {
			out[i] = algebra.Undef{}
		}
		return out
	}
	panic(fmt.Sprintf("term: Eval of unknown term %T", t))
}

// reduceBalanced folds xs[lo:hi] over the balanced binary tree of §3.2 of
// height h: leaves all at depth h, right subtrees complete. This is the
// bracketing under which the non-associative op_sr is correct. A node's
// value is written over its left child's when that is a buffer the fold
// drew, which drawn reports.
func (sc *Scratch) reduceBalanced(op *algebra.Op, xs []algebra.Value, lo, hi, h int) (y algebra.Value, drawn bool) {
	if h == 0 {
		return xs[lo], false
	}
	half := 1 << (h - 1)
	if hi-lo <= half {
		y, drawn = sc.reduceBalanced(op, xs, lo, hi, h-1)
		return sc.unary(op, y, drawn)
	}
	mid := hi - half
	y, drawn = sc.reduceBalanced(op, xs, lo, mid, h-1)
	right, _ := sc.reduceBalanced(op, xs, mid, hi, h-1)
	return sc.combine(op, y, right, drawn)
}

// scanBalanced runs the butterfly of §3.3 on the list: ceil(log2 n)
// phases, in phase k index i pairs with i xor 2^k; indices without a
// partner apply the Solo case (keep the first component, poison the
// rest). With the operator's flat kernels, every state that is a tuple of
// the operator's arity (flatShape) is first copied into a drawn flat tuple,
// which the phases rewrite in place while both partners are flat, as
// coll.ScanBalanced does.
func (sc *Scratch) scanBalanced(op *algebra.BalancedScanOp, xs []algebra.Value) []algebra.Value {
	n := len(xs)
	cur := sc.list(n)
	copy(cur, xs)
	kernels := n > 1 && op.FlatShip != nil && op.FlatLo != nil && op.FlatHi != nil
	if kernels {
		for i, x := range cur {
			if m, ok := flatShape(op.Arity, x); ok {
				cur[i] = flatten(sc.Flat(op.Arity, m), x)
			}
		}
	}
	// ours reports that two partners are states drawn above.
	ours := func(a, b algebra.Value) (x, y *algebra.FlatTuple, ok bool) {
		x, xf := a.(*algebra.FlatTuple)
		y, yf := b.(*algebra.FlatTuple)
		return x, y, kernels && xf && yf && x.W == op.Arity && y.W == x.W && len(y.Data) == len(x.Data)
	}
	for k := 0; 1<<k < n; k++ {
		next := sc.list(n)
		for i := 0; i < n; i++ {
			partner := i ^ (1 << k)
			switch {
			case partner >= n:
				next[i] = op.Solo(algebra.Boxed(cur[i]))
			case partner > i:
				lo, hi, ok := ours(cur[i], cur[partner])
				if !ok {
					next[i] = op.Lo(algebra.Boxed(cur[i]), op.Ship(algebra.Boxed(cur[partner])))
					continue
				}
				fromHi, fromLo := sc.Flat(op.ShipWidth, lo.M()), sc.Flat(op.ShipWidth, lo.M())
				op.FlatShip(fromHi, hi)
				op.FlatShip(fromLo, lo)
				op.FlatLo(lo, lo, fromHi)
				op.FlatHi(hi, hi, fromLo)
				sc.GiveBack(2)
				next[i], next[partner] = lo, hi
			default:
				if _, _, ok := ours(cur[partner], cur[i]); !ok {
					next[i] = op.Hi(algebra.Boxed(cur[i]), op.Ship(algebra.Boxed(cur[partner])))
				}
			}
		}
		cur = next
	}
	return cur
}
