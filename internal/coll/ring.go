package coll

import "repro/internal/algebra"

// This file adds the bandwidth-optimal reduction algorithms built from
// reduce-scatter: the ring all-reduce (reduce-scatter + allgather) moves
// only ~2m words per processor regardless of p, against the butterfly's
// m·log p. They require elementwise operators on Vec blocks of at least
// one element per group member.

// ReduceScatter combines the members' blocks elementwise with op and
// leaves chunk i of the result on member i (chunks split the block as
// evenly as possible, remainder to the lower ranks). The ring algorithm
// runs p−1 steps; in step s, member r sends the partial chunk it has been
// accumulating onward to r+1, so every chunk travels the whole ring once:
// (p−1)·(ts + (m/p)·(tw+1)) — bandwidth ~m, not m·log p.
//
// It returns this member's fully reduced chunk.
func ReduceScatter(c Comm, op *algebra.Op, x Value) Value {
	tag := c.NextTag()
	n := c.Size()
	vec, ok := x.(algebra.Vec)
	if !ok || len(vec) < n {
		panic("coll: ReduceScatter needs a Vec block with at least one element per member")
	}
	if n == 1 {
		return vec
	}
	rank := c.Rank()
	chunk := func(v algebra.Vec, i int) algebra.Vec {
		per := len(v) / n
		rem := len(v) % n
		off := 0
		for k := 0; k < i; k++ {
			sz := per
			if k < rem {
				sz++
			}
			off += sz
		}
		sz := per
		if i < rem {
			sz++
		}
		return v[off : off+sz]
	}
	// acc[i] accumulates chunk i; start with copies of the own block's
	// chunks (pre-boxed, so the in-place combines below box nothing).
	acc := make([]Value, n)
	for i := 0; i < n; i++ {
		acc[i] = Value(append(algebra.Vec(nil), chunk(vec, i)...))
	}
	next := (rank + 1) % n
	prev := (rank - 1 + n) % n
	// In step s, member r sends chunk (r−s−1) mod n and receives chunk
	// (r−s−2) mod n, folding it into its accumulator; each chunk rides
	// the ring once, and the chunk received in the last step — chunk r —
	// is then complete. Combining is (incoming ⊕ own): for the
	// elementwise commutative/associative operators this algorithm
	// targets, the order is immaterial, and for non-commutative ones
	// the ring order is documented behavior.
	for s := 0; s < n-1; s++ {
		sendIdx := ((rank-s-1)%n + n) % n
		recvIdx := ((rank-s-2)%n + n) % n
		sendChunk := acc[sendIdx]
		// Send before receiving: the machine's sends are buffered, so
		// the ring cannot deadlock on this order.
		c.Send(next, sendChunk, tag)
		incoming := c.Recv(prev, tag)
		// acc[recvIdx] is not sent until the next step, so the combine
		// may accumulate into it in place.
		combined := op.ApplyInto(acc[recvIdx], incoming, acc[recvIdx])
		c.Compute(op.Charge(combined))
		acc[recvIdx] = combined
	}
	return acc[rank]
}

// AllReduceRing computes the all-reduction of Vec blocks with the ring
// algorithm: reduce-scatter followed by an allgather of the chunks —
// 2(p−1) steps of m/p words each, total bandwidth ~2m per member. The
// classic large-block all-reduce.
func AllReduceRing(c Comm, op *algebra.Op, x Value) Value {
	n := c.Size()
	own := ReduceScatter(c, op, x)
	if n == 1 {
		return own
	}
	tag := c.NextTag()
	rank := c.Rank()
	next := (rank + 1) % n
	prev := (rank - 1 + n) % n
	chunks := make([]algebra.Vec, n)
	chunks[rank] = own.(algebra.Vec)
	// Ring allgather: in step s, forward chunk (rank−s) mod n.
	for s := 0; s < n-1; s++ {
		sendIdx := ((rank-s)%n + n) % n
		recvIdx := ((rank-s-1)%n + n) % n
		c.Send(next, chunks[sendIdx], tag)
		chunks[recvIdx] = c.Recv(prev, tag).(algebra.Vec)
	}
	out := make(algebra.Vec, 0, len(x.(algebra.Vec)))
	for i := 0; i < n; i++ {
		out = append(out, chunks[i]...)
	}
	return out
}
