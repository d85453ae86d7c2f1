package coll

import (
	"repro/internal/algebra"
	"repro/internal/cost"
)

// This file implements the algorithm portfolio behind the selection layer
// (package coll/sel): the reduce-scatter + allgather all-reduction via
// recursive halving/doubling (Rabenseifner's algorithm; Träff 2024), the
// chain-pipelined segmented reduction with a caller-chosen segment count
// (Lowery & Langou's greedy pipelining), and the bidirectional ring
// all-reduction that drives both ring directions concurrently (as in the
// poplibs ring program). All of them split or segment the block, so they
// require an elementwise base operator on Vec blocks; the cost lines that
// rank them against the butterfly live in cost/algo.go.
//
// Ownership follows the PR-4 owned-scratch discipline: working buffers
// come from the rank's arena (or fresh allocations without one), a region
// of a buffer is never written after it has been shipped, and combining
// happens in place only inside regions this rank still owns.

// chunkBounds returns the offset and size of chunk i when a block of
// mlen words is split into parts chunks, as evenly as possible with the
// remainder going to the lower chunks — the same layout ReduceScatter
// uses, shared so every chunked algorithm and both sides of a transfer
// agree on it without communication.
func chunkBounds(mlen, parts, i int) (off, sz int) {
	per := mlen / parts
	rem := mlen % parts
	off = i*per + min(i, rem)
	sz = per
	if i < rem {
		sz++
	}
	return off, sz
}

// chunkOff returns the word offset of chunk i (chunkBounds' offset only).
func chunkOff(mlen, parts, i int) int {
	off, _ := chunkBounds(mlen, parts, i)
	return off
}

// arenaVec draws an n-word scratch Vec from the arena (nil arenas
// allocate fresh).
func arenaVec(ar *algebra.Arena, n int) algebra.Vec {
	return ar.Vec(n).(algebra.Vec)
}

// AllReduceRabenseifner computes the all-reduction of Vec blocks with
// recursive-halving reduce-scatter followed by recursive-doubling
// allgather: 2·log p start-ups but only ~2m·(p−1)/p words and ~m·(p−1)/p
// combines per member, against the butterfly's m·log p of each — the
// classic large-block all-reduce. Non-power-of-two groups fold adjacent
// pairs into leaders first and unfold at the end. The operator must be
// elementwise (chunks are combined independently) and the block must hold
// at least one word per member; as in the MPI implementations of this
// algorithm, the halving phase combines partners in distance order, not
// rank order, so exactness under reassociation assumes a commutative
// base operator (true of every builtin elementwise operator here).
func AllReduceRabenseifner(c Comm, op *algebra.Op, x Value) Value {
	n := c.Size()
	vec, ok := x.(algebra.Vec)
	if !ok || len(vec) < n {
		panic("coll: AllReduceRabenseifner needs a Vec block with at least one element per member")
	}
	if n == 1 {
		return vec
	}
	tag := c.NextTag()
	ar := c.Caps().Arena
	rank := c.Rank()
	q := 1 << log2Floor(n)
	r := n - q
	m := len(vec)

	// Fold: pairs (2i, 2i+1) for i < r combine into leader 2i, keeping
	// rank order (lower operand left). work is owned scratch from here on.
	isLeader := true
	leaderIdx := rank
	var work algebra.Vec
	if rank < 2*r {
		if rank%2 == 1 {
			c.Send(rank-1, vec, tag)
			isLeader = false
		} else {
			hi := c.Recv(rank+1, tag)
			work = arenaVec(ar, m)
			op.ApplyInto(work, vec, hi)
			c.Compute(op.Charge(work))
			leaderIdx = rank / 2
		}
	} else {
		leaderIdx = rank - r
		work = arenaVec(ar, m)
		copy(work, vec)
	}
	leaderRank := func(idx int) int {
		if idx < r {
			return 2 * idx
		}
		return idx + r
	}
	if !isLeader {
		// Wait for the unfold: the pair's leader ships the finished block.
		return c.Recv(rank-1, tag)
	}

	// Recursive halving over chunk indices [lo, hi): each step keeps the
	// half containing this leader's chunk, ships the other half to the
	// partner, and folds the received words into the kept region in
	// place — the kept region has never been shipped, so in-place
	// combining is safe; shipped regions are frozen from then on.
	type step struct {
		partner        int  // partner's machine rank
		keptLo, keptHi int  // chunk range kept after the step
		sentLo, sentHi int  // chunk range shipped to the partner
		partnerLower   bool // partner's chunks precede ours in rank order
	}
	var steps []step
	lo, hi := 0, q
	for hi-lo > 1 {
		half := (hi - lo) / 2
		var st step
		if leaderIdx < lo+half {
			st = step{partner: leaderRank(leaderIdx + half), keptLo: lo, keptHi: lo + half, sentLo: lo + half, sentHi: hi, partnerLower: false}
		} else {
			st = step{partner: leaderRank(leaderIdx - half), keptLo: lo + half, keptHi: hi, sentLo: lo, sentHi: lo + half, partnerLower: true}
		}
		sendSlice := work[chunkOff(m, q, st.sentLo):chunkOff(m, q, st.sentHi)]
		c.Send(st.partner, sendSlice, tag)
		recv := c.Recv(st.partner, tag).(algebra.Vec)
		kept := work[chunkOff(m, q, st.keptLo):chunkOff(m, q, st.keptHi)]
		if st.partnerLower {
			op.ApplyInto(kept, recv, kept)
		} else {
			op.ApplyInto(kept, kept, recv)
		}
		c.Compute(op.Charge(kept))
		steps = append(steps, st)
		lo, hi = st.keptLo, st.keptHi
	}

	// Recursive-doubling allgather, replaying the halving steps in
	// reverse. The result is assembled in a fresh buffer: the regions the
	// halving phase shipped are frozen (a partner may still read them),
	// so finished words are never written back into work.
	out := arenaVec(ar, m)
	copy(out[chunkOff(m, q, lo):chunkOff(m, q, hi)], work[chunkOff(m, q, lo):chunkOff(m, q, hi)])
	for i := len(steps) - 1; i >= 0; i-- {
		st := steps[i]
		held := out[chunkOff(m, q, st.keptLo):chunkOff(m, q, st.keptHi)]
		c.Send(st.partner, held, tag)
		recv := c.Recv(st.partner, tag).(algebra.Vec)
		copy(out[chunkOff(m, q, st.sentLo):chunkOff(m, q, st.sentHi)], recv)
	}

	// Unfold: leaders of folded pairs ship the finished block back.
	if rank < 2*r {
		c.Send(rank+1, out, tag)
	}
	return out
}

// ReducePipelined computes the rooted reduction (result on the first
// processor, all other members' values unchanged, like Reduce) by
// streaming the block down the rank chain p−1 → … → 0 in segments:
// segment s is combined and forwarded as soon as it arrives, so transfer
// and combine of different segments overlap — p−2+k pipeline slots of
// ts + (m/k)·(tw+1) each instead of the binomial tree's log p full-block
// phases. The segment count is the caller's choice; cost.PipelineSegments
// gives the Lowery–Langou optimum. The operator must be elementwise and
// the value a Vec; combining keeps rank order (lower ranks left).
func ReducePipelined(c Comm, op *algebra.Op, x Value, segments int) Value {
	n := c.Size()
	vec, ok := x.(algebra.Vec)
	if !ok || len(vec) == 0 {
		panic("coll: ReducePipelined needs a non-empty Vec block")
	}
	if n == 1 {
		return vec
	}
	tag := c.NextTag()
	rank := c.Rank()
	k := segments
	if k < 1 {
		k = 1
	}
	if k > len(vec) {
		k = len(vec)
	}
	m := len(vec)
	if rank == n-1 {
		// Tail of the chain: feed the pipeline, value unchanged.
		for s := 0; s < k; s++ {
			off, sz := chunkBounds(m, k, s)
			c.Send(rank-1, vec[off:off+sz], tag)
		}
		return x
	}
	// Combine each arriving segment with the own block's segment (own
	// rank is lower, so own goes left) into owned scratch; middle ranks
	// forward the combined segment and never touch it again.
	work := arenaVec(c.Caps().Arena, m)
	for s := 0; s < k; s++ {
		off, sz := chunkBounds(m, k, s)
		recv := c.Recv(rank+1, tag)
		seg := work[off : off+sz]
		op.ApplyInto(seg, vec[off:off+sz], recv)
		c.Compute(op.Charge(seg))
		if rank > 0 {
			c.Send(rank-1, seg, tag)
		}
	}
	if rank == 0 {
		return work
	}
	return x
}

// ringHalf runs a unidirectional ring reduce-scatter + allgather over one
// half of the block (or all of it: ReduceScatter, AllReduceRing), in
// direction d (+1: send to next, receive from prev;
// −1: the mirror). acc is this rank's private copy of the half, split
// into n chunks; after p−1 reduce-scatter steps chunk `rank` is complete,
// and p−1 allgather steps circulate the finished chunks. deliver is
// called as each transfer of the step is posted, letting the caller
// interleave two directions so their messages overlap in flight.
type ringHalf struct {
	c   Comm
	op  *algebra.Op
	tag int
	d   int // +1 clockwise (send next), −1 anticlockwise (send prev)
	acc []algebra.Vec
}

func newRingHalf(c Comm, op *algebra.Op, d int, half algebra.Vec) *ringHalf {
	n := c.Size()
	ar := c.Caps().Arena
	acc := make([]algebra.Vec, n)
	for i := 0; i < n; i++ {
		off, sz := chunkBounds(len(half), n, i)
		ch := arenaVec(ar, sz)
		copy(ch, half[off:off+sz])
		acc[i] = ch
	}
	return &ringHalf{c: c, op: op, tag: c.NextTag(), d: d, acc: acc}
}

func (h *ringHalf) peerOut() int {
	n := h.c.Size()
	return (h.c.Rank() + h.d + n) % n
}

func (h *ringHalf) peerIn() int {
	n := h.c.Size()
	return (h.c.Rank() - h.d + n) % n
}

// idx maps a step offset to a chunk index in this direction.
func (h *ringHalf) idx(offset int) int {
	n := h.c.Size()
	return ((h.c.Rank()-h.d*offset)%n + n) % n
}

// sendReduce posts step s's reduce-scatter transfer.
func (h *ringHalf) sendReduce(s int) { h.c.Send(h.peerOut(), h.acc[h.idx(s+1)], h.tag) }

// recvReduce completes step s: fold the incoming partial chunk into the
// accumulator (incoming left: it carries the contributions of the ranks
// behind us in ring order; for the elementwise commutative operators this
// algorithm targets the order is immaterial, and for non-commutative ones
// ring order is documented behavior). The chunk is not sent until the
// next step, so the combine accumulates into it in place.
func (h *ringHalf) recvReduce(s int) {
	i := h.idx(s + 2)
	in := h.c.Recv(h.peerIn(), h.tag)
	h.op.ApplyInto(h.acc[i], in, h.acc[i])
	h.c.Compute(h.op.Charge(h.acc[i]))
}

// sendGather posts step s's allgather transfer.
func (h *ringHalf) sendGather(s int) { h.c.Send(h.peerOut(), h.acc[h.idx(s)], h.tag) }

// recvGather completes step s: adopt the finished chunk.
func (h *ringHalf) recvGather(s int) {
	h.acc[h.idx(s+1)] = h.c.Recv(h.peerIn(), h.tag).(algebra.Vec)
}

// assemble concatenates the finished chunks into dst.
func (h *ringHalf) assemble(dst algebra.Vec) {
	off := 0
	for i := 0; i < h.c.Size(); i++ {
		off += copy(dst[off:], h.acc[i])
	}
}

// AllReduceRingBi computes the all-reduction of Vec blocks on the
// bidirectional ring, as in the poplibs ring program: the block splits
// into two halves, the clockwise ring carries the lower half and the
// anticlockwise ring the upper half, and each step posts both directions'
// transfers before waiting on either, so on full-duplex links every step
// moves only m/(2p) words per direction — half the unidirectional ring's
// per-step volume. Start-ups double: 2(p−1) steps of two messages each.
// The operator must be elementwise and the block must hold at least two
// words per member (one per direction).
func AllReduceRingBi(c Comm, op *algebra.Op, x Value) Value {
	n := c.Size()
	vec, ok := x.(algebra.Vec)
	if !ok || len(vec) < 2*n {
		panic("coll: AllReduceRingBi needs a Vec block with at least two elements per member")
	}
	if n == 1 {
		return vec
	}
	half := len(vec) / 2
	cw := newRingHalf(c, op, +1, vec[:half])
	acw := newRingHalf(c, op, -1, vec[half:])
	for s := 0; s < n-1; s++ {
		// Post both directions' sends before receiving either: the sends
		// are buffered, so the step's four transfers are all in flight
		// together and full-duplex links overlap them.
		cw.sendReduce(s)
		acw.sendReduce(s)
		cw.recvReduce(s)
		acw.recvReduce(s)
	}
	for s := 0; s < n-1; s++ {
		cw.sendGather(s)
		acw.sendGather(s)
		cw.recvGather(s)
		acw.recvGather(s)
	}
	out := arenaVec(c.Caps().Arena, len(vec))
	cw.assemble(out[:half])
	acw.assemble(out[half:])
	return out
}

// ReduceBy is the one place a portfolio algorithm name becomes a
// collective call: it runs the unbalanced reduction of x — the
// all-reduction when all is set, otherwise rooted at the first processor —
// with algorithm a, and every layer that executes a selection (the stage
// executor, the native and multi-process measurements) goes through it.
// segments is the pipeline's segment count, ignored by the others. An
// algorithm that cannot compute this reduction — cost.Admits rejects the
// operator, x is not a Vec, or cost.Applicable rejects (group size, block
// length) — falls back to the §4.1 butterfly, as does an unknown or empty
// name. The shape check is on the member's local value, so SPMD callers
// must feed uniformly shaped blocks: the same contract the collectives
// themselves have.
func ReduceBy(c Comm, op *algebra.Op, x Value, all bool, a cost.Algo, segments int) Value {
	collective := cost.CollReduce
	if all {
		collective = cost.CollAllReduce
	}
	if a != cost.AlgoButterfly && cost.Admits(a, op) {
		vec, ok := x.(algebra.Vec)
		if ok && cost.Applicable(collective, a, cost.Params{P: c.Size(), M: len(vec)}) {
			switch a {
			case cost.AlgoRabenseifner:
				return AllReduceRabenseifner(c, op, x)
			case cost.AlgoRing:
				return AllReduceRing(c, op, x)
			case cost.AlgoRingBi:
				return AllReduceRingBi(c, op, x)
			case cost.AlgoPipeline:
				return ReducePipelined(c, op, x, segments)
			}
		}
	}
	if all {
		return AllReduce(c, op, x)
	}
	return Reduce(c, 0, op, x)
}
