package term

import (
	"fmt"
	"math/bits"

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
// and the flat tuples the derived operators, comcast, iter and the
// balanced scan pick to compute in (scratch.go). The rest allocates. A
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
			out[i] = s.Op.ApplyIn(&sc.Arena, nil, out[i-1], xs[i])
		}
		return out
	case ScanBal:
		return sc.scanBalanced(s.Op, xs)
	case Reduce:
		var y algebra.Value
		if s.Balanced {
			y = sc.reduceBalanced(s.Op, xs, 0, len(xs), bits.Len(uint(len(xs)-1)))
		} else {
			// Only the last partial result is kept, so every combine after
			// the first writes over the one before.
			y = xs[0]
			var dst algebra.Value
			for _, x := range xs[1:] {
				y = s.Op.ApplyIn(&sc.Arena, dst, y, x)
				dst = y
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
		// Position i steps the one working state the previous position
		// stepped, once its first block is copied out: a view would change.
		out := sc.list(len(xs))
		var w algebra.Value
		for i := range out {
			w = s.Ops.RepeatIn(&sc.Arena, w, i, xs[0])
			out[i] = algebra.First(w)
			if t, ok := w.(*algebra.FlatTuple); ok {
				out[i] = sc.Vec(t.M())
				copy(out[i].(algebra.Vec), t.Data)
			}
		}
		return out
	case Halo:
		return evalHalo(s.H, xs)
	case AllGatherV:
		return evalAllGatherV(s.Counts, xs)
	case ReduceScatterV:
		return evalReduceScatterV(s.Op, s.Counts, xs)
	case Iter:
		out := sc.list(len(xs))
		steps := bits.Len(uint(len(xs) - 1)) // ⌈log₂ n⌉
		out[0] = Apply(&sc.Arena, FirstFn, s.Op.IterateIn(&sc.Arena, nil, steps, xs[0]))
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
// value is written over its left child's when a combine below drew that.
func (sc *Scratch) reduceBalanced(op *algebra.Op, xs []algebra.Value, lo, hi, h int) algebra.Value {
	if h == 0 {
		return xs[lo]
	}
	// into is a child's value as the destination: a buffer a combine
	// below drew, or nothing for a leaf.
	into := func(y algebra.Value) algebra.Value {
		if h > 1 {
			return y
		}
		return nil
	}
	mid := hi - 1<<(h-1) // the right subtree covers [mid, hi), the left one the rest
	if mid <= lo {
		y := sc.reduceBalanced(op, xs, lo, hi, h-1)
		return op.ApplyUnaryIn(&sc.Arena, into(y), y)
	}
	y := sc.reduceBalanced(op, xs, lo, mid, h-1)
	return op.ApplyIn(&sc.Arena, into(y), y, sc.reduceBalanced(op, xs, mid, hi, h-1))
}

// scanBalanced runs the butterfly of §3.3 on the list: ceil(log2 n)
// phases, in phase k index i pairs with i xor 2^k; indices without a
// partner apply the Solo case (keep the first component, poison the
// rest). As in coll.ScanBalanced, a phase rewrites a state in place once
// it is the evaluator's own (mine): a working copy or a phase's result,
// not a flat input, which positions may share; two projections serve
// every pair.
func (sc *Scratch) scanBalanced(op *algebra.BalancedScanOp, xs []algebra.Value) []algebra.Value {
	n := len(xs)
	cur, mine := sc.list(n), sc.list(n)
	copy(cur, xs)
	if n > 1 {
		for i, x := range xs {
			cur[i], mine[i] = op.Working(&sc.Arena, x)
		}
	}
	var fromHi, fromLo algebra.Value
	for k := 0; 1<<k < n; k++ {
		next := sc.list(n)
		for i := 0; i < n; i++ {
			switch partner := i ^ (1 << k); {
			case partner >= n:
				next[i] = op.Solo(cur[i])
			case partner > i:
				fromHi, fromLo = op.ShipIn(&sc.Arena, fromHi, cur[partner]), op.ShipIn(&sc.Arena, fromLo, cur[i])
				next[i] = op.NodeIn(&sc.Arena, mine[i], cur[i], fromHi, false)
				next[partner] = op.NodeIn(&sc.Arena, mine[partner], cur[partner], fromLo, true)
			}
		}
		cur, mine = next, next
	}
	return cur
}
