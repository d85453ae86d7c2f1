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
// Eval is Scratch.Eval with a nil scratch, which allocates every list,
// block and tuple afresh: what it returns is the caller's to keep.
func Eval(t Term, xs []algebra.Value) []algebra.Value {
	return (*Scratch)(nil).Eval(t, xs)
}

// Eval is the package-level Eval with per-stage lists, base-operator
// results on Vec and Scalar blocks, and the tuples of pair, triple,
// quadruple and gather drawn from sc; the rest allocates. A combine writes
// to a buffer of its own, not to an input or a shared value: the results
// are Eval's, bit for bit, valid until the next Reset.
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
			out[i] = sc.apply(s.F, x)
		}
		return out
	case MapIdx:
		out := sc.list(len(xs))
		for i, x := range xs {
			out[i] = s.F.F(i, x)
		}
		return out
	case Scan:
		out := sc.list(len(xs))
		out[0] = xs[0]
		for i := 1; i < len(xs); i++ {
			out[i] = sc.combine(s.Op, out[i-1], xs[i])
		}
		return out
	case ScanBal:
		return sc.scanBalanced(s.Op, xs)
	case Reduce:
		var y algebra.Value
		if s.Balanced {
			y = sc.reduceBalanced(s.Op, xs)
		} else {
			y = xs[0]
			for _, x := range xs[1:] {
				y = sc.combine(s.Op, y, x)
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
		list, boxed := sc.tuple(len(xs))
		copy(list, xs)
		out[0] = boxed
		for i := 1; i < len(out); i++ {
			out[i] = algebra.Undef{}
		}
		return out
	case Scatter:
		list, ok := xs[0].(algebra.Tuple)
		if !ok || len(list) != len(xs) {
			panic(fmt.Sprintf("term: scatter needs a %d-component list on the first processor, got %v", len(xs), xs[0]))
		}
		out := sc.list(len(xs))
		copy(out, list)
		return out
	case Comcast:
		out := sc.list(len(xs))
		for i := range out {
			out[i] = algebra.First(s.Ops.Repeat(i, s.Ops.Prepare(xs[0])))
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
		w := s.Op.Prepare(xs[0])
		for k := 1; k < len(xs); k <<= 1 {
			w = s.Op.F(w)
		}
		out[0] = algebra.First(w)
		for i := 1; i < len(xs); i++ {
			out[i] = algebra.Undef{}
		}
		return out
	}
	panic(fmt.Sprintf("term: Eval of unknown term %T", t))
}

// reduceBalanced folds xs over the balanced binary tree of §3.2: leaves
// all at depth ceil(log2 n), right subtrees complete. This is the
// bracketing under which the non-associative op_sr is correct.
func (sc *Scratch) reduceBalanced(op *algebra.Op, xs []algebra.Value) algebra.Value {
	n := len(xs)
	h := 0
	for 1<<h < n {
		h++
	}
	var node func(lo, hi, h int) algebra.Value
	node = func(lo, hi, h int) algebra.Value {
		if h == 0 {
			return xs[lo]
		}
		half := 1 << (h - 1)
		if hi-lo <= half {
			return op.ApplyUnary(node(lo, hi, h-1))
		}
		mid := hi - half
		return sc.combine(op, node(lo, mid, h-1), node(mid, hi, h-1))
	}
	return node(0, n, h)
}

// scanBalanced runs the butterfly of §3.3 on the list: ceil(log2 n)
// phases, in phase k index i pairs with i xor 2^k; indices without a
// partner apply the Solo case (keep the first component, poison the
// rest).
func (sc *Scratch) scanBalanced(op *algebra.BalancedScanOp, xs []algebra.Value) []algebra.Value {
	n := len(xs)
	cur := sc.list(n)
	copy(cur, xs)
	for k := 0; 1<<k < n; k++ {
		next := sc.list(n)
		for i := 0; i < n; i++ {
			partner := i ^ (1 << k)
			switch {
			case partner >= n:
				next[i] = op.Solo(cur[i])
			case partner > i:
				next[i] = op.Lo(cur[i], op.Ship(cur[partner]))
			default:
				next[i] = op.Hi(cur[i], op.Ship(cur[partner]))
			}
		}
		cur = next
	}
	return cur
}
