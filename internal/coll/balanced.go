package coll

import (
	"repro/internal/algebra"
)

// ReduceBalanced combines the group's values on the balanced binary tree
// of §3.2 (Figure 4): every leaf at the same depth ceil(log2 p), and the
// right subtree of every node complete whenever the left subtree is
// non-empty. This shape is exactly what makes the non-associative derived
// operator op_sr correct — the operator's u component carries the segment
// sum weighted by 2^level, and combining is sound only when the right
// operand covers a complete power-of-two segment.
//
// Nodes with an empty left subtree apply the operator's one-sided case
// op((), v) locally (no communication). The result lands on rank 0;
// other members return their input unchanged, mirroring reduce's list
// semantics.
func ReduceBalanced(c Comm, op *algebra.Op, x Value) Value {
	return exec(c, op, x, "ReduceBalanced", 0, genReduceBalanced, 0)
}

// reduceBalanced is ReduceBalanced's schedule.
func reduceBalanced(s *schedule, p, rank int) {
	s.startWhole(inBuf, log2Ceil(p))
	if rank == 0 {
		s.res = workBuf
	}
	s.balanced(rank, 0, p, log2Ceil(p))
}

// balanced appends rank's steps of the subtree over ranks [lo, hi) at
// height h, whose value lands on lo: the right subtree covers the last
// 2^(h−1) ranks, from mid, and the left one the rest, which may be empty.
// A rank ships its value once and never combines afterwards.
func (s *schedule) balanced(rank, lo, hi, h int) {
	if h == 0 {
		return
	}
	mid := max(hi-1<<(h-1), lo)
	if rank < mid {
		s.balanced(rank, lo, mid, h-1)
	} else {
		s.balanced(rank, mid, hi, h-1)
	}
	switch {
	case rank == lo && mid == lo:
		s.with(doUnary, -1, workBuf)
	case rank == lo:
		s.with(doRight, mid, workBuf)
	case rank == mid:
		s.with(doSend, lo, workBuf)
	}
}

// AllReduceBalanced extends the balanced reduction to all members. On a
// power-of-two group it is AllReduce, the butterfly the paper sketches at
// the end of §3.2: in phase k the 2^k-segment partners exchange values and
// both combine in rank order, which is sound for op_sr because every
// butterfly segment is complete. On other group sizes it falls back to the
// balanced tree followed by a broadcast (the generalized butterfly the
// paper leaves open).
func AllReduceBalanced(c Comm, op *algebra.Op, x Value) Value {
	if !IsPow2(c.Size()) {
		return Bcast(c, 0, ReduceBalanced(c, op, x))
	}
	return AllReduce(c, op, x)
}

// ScanBalanced runs the balanced scan of §3.3 (Figure 5) with a
// BalancedScanOp such as op_ss: ceil(log2 p) butterfly phases; in each
// phase partners exchange the operator's shipped projection and the
// lower/higher partner applies its side of the node operation. Members
// whose partner does not exist (group size not a power of two) keep their
// first component and poison the rest — the paper proves, and the
// implementation preserves, that poisoned components are never consumed.
func ScanBalanced(c Comm, op *algebra.BalancedScanOp, x Value) Value {
	tag := c.NextTag()
	n := c.Size()
	ar := c.Caps().Arena
	// Only the state's projection is ever shipped, so a phase may rewrite
	// the state in place once it is the rank's own (mine): a working copy
	// or a phase's result, not a flat input, which other ranks may share.
	v, mine := op.Working(ar, x)
	m := float64(x.Words()) / float64(op.Arity)
	for k := 0; k < log2Ceil(n); k++ {
		partner := c.Rank() ^ (1 << k)
		if partner >= n {
			v = op.Solo(v)
			continue
		}
		recv := c.Exchange(partner, op.ShipIn(ar, nil, v), tag)
		higher := partner < c.Rank()
		v = op.NodeIn(ar, mine, v, recv, higher)
		mine = v
		if higher {
			c.Compute(float64(op.CostHi) * m)
		} else {
			c.Compute(float64(op.CostLo) * m)
		}
	}
	return v
}
