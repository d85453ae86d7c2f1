package coll

import "repro/internal/algebra"

// This file adds the bandwidth-optimal reduction algorithms built from
// reduce-scatter: the ring all-reduce (reduce-scatter + allgather) moves
// only ~2m words per processor regardless of p, against the butterfly's
// m·log p. They require elementwise operators on Vec blocks of at least
// one element per group member. Both are the unidirectional case of
// ringHalf (algo.go): direction +1 on the whole block.

// ringReduceScatter runs the p−1 reduce-scatter steps of the clockwise
// ring on x and returns the ring, whose chunk `rank` is then complete,
// with the block; on a single-member group there is no ring to run and it
// returns nil.
func ringReduceScatter(c Comm, op *algebra.Op, x Value) (*ringHalf, algebra.Vec) {
	n := c.Size()
	vec, ok := x.(algebra.Vec)
	if !ok || len(vec) < n {
		panic("coll: ReduceScatter needs a Vec block with at least one element per member")
	}
	if n == 1 {
		return nil, vec
	}
	h := newRingHalf(c, op, +1, vec)
	for s := 0; s < n-1; s++ {
		// Send before receiving: sends are buffered, so the ring cannot
		// deadlock on this order.
		h.sendReduce(s)
		h.recvReduce(s)
	}
	return h, vec
}

// ReduceScatter combines the members' blocks elementwise with op and
// leaves chunk i of the result on member i (chunks split the block as
// evenly as possible, remainder to the lower ranks: chunkBounds). The ring
// algorithm runs p−1 steps; in step s, member r sends the partial chunk it
// has been accumulating onward to r+1, so every chunk travels the whole
// ring once: (p−1)·(ts + (m/p)·(tw+1)) — bandwidth ~m, not m·log p.
//
// It returns this member's fully reduced chunk.
func ReduceScatter(c Comm, op *algebra.Op, x Value) Value {
	h, vec := ringReduceScatter(c, op, x)
	if h == nil {
		return vec
	}
	return h.acc[c.Rank()]
}

// AllReduceRing computes the all-reduction of Vec blocks with the ring
// algorithm: reduce-scatter followed by an allgather of the chunks —
// 2(p−1) steps of m/p words each, total bandwidth ~2m per member. The
// classic large-block all-reduce.
func AllReduceRing(c Comm, op *algebra.Op, x Value) Value {
	h, vec := ringReduceScatter(c, op, x)
	if h == nil {
		return vec
	}
	for s := 0; s < c.Size()-1; s++ {
		h.sendGather(s)
		h.recvGather(s)
	}
	out := arenaVec(c.Caps().Arena, len(vec))
	h.assemble(out)
	return out
}
