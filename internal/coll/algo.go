package coll

import (
	"repro/internal/algebra"
	"repro/internal/cost"
)

// This file implements the algorithm portfolio behind the selection layer
// (package coll/sel): the reduce-scatter + allgather all-reduction via
// recursive halving/doubling (Rabenseifner's algorithm; Träff 2024), the
// ring reduce-scatter and all-reduction, the bidirectional ring
// all-reduction that drives both ring directions concurrently (as in the
// poplibs ring program), and the chain-pipelined segmented reduction with
// a caller-chosen segment count (Lowery & Langou's greedy pipelining). All
// of them split or segment the block, so they require an elementwise base
// operator on Vec blocks; the cost lines that rank them against the
// butterfly live in cost/algo.go. Each is a generator of one rank's
// schedule, which the one interpreter runs (schedule.go).

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

// AllReduceRabenseifner computes the all-reduction of Vec blocks with
// recursive-halving reduce-scatter followed by recursive-doubling
// allgather: 2·log p start-ups but only ~2m·(p−1)/p words and ~m·(p−1)/p
// combines per member, against the butterfly's m·log p of each — the
// classic large-block all-reduce. Non-power-of-two groups fold adjacent
// pairs into leaders first and unfold at the end. The operator must be
// elementwise (chunks are combined independently) and the block must hold
// at least one word per member; as in the MPI implementations of this
// algorithm, the halving phase combines partners in distance order, not
// rank order, so the result is the reduction only for a commutative base
// operator (cost.Admits).
func AllReduceRabenseifner(c Comm, op *algebra.Op, x Value) Value {
	return exec(c, op, x, "AllReduceRabenseifner", c.Size(), genRabenseifner, 0)
}

// rabenseifner is AllReduceRabenseifner's schedule. Of each folded pair
// (2i, 2i+1), i < r = p − q, the odd member ships its block to the even
// one, which combines it in rank order and leads; the q = 2^⌊log p⌋
// leaders run the halving over chunk indices [0, q) of work, each step
// keeping the half that holds the leader's own chunk and combining the
// partner's copy of it in place; the allgather is the halving read
// backwards, into out; and leaders of folded pairs ship the result back.
func rabenseifner(s *schedule, p, rank, m int) {
	q := 1 << log2Floor(p)
	r := p - q
	s.start(outBuf, 0, m, 4*log2Floor(q)+3)
	if rank < 2*r && rank%2 == 1 {
		s.add(doSend, rank-1, inBuf, 0, m)
		s.add(doCopy, rank-1, outBuf, 0, m)
		return
	}
	idx := rank - r
	if rank < 2*r {
		s.add(doRight, rank+1, workBuf, 0, m)
		idx = rank / 2
	}
	leader := func(i int) int { return i + min(i, r) } // leader i's rank
	off := func(i int) int { return i*(m/q) + min(i, m%q) }
	first := len(s.steps)
	lo, hi := 0, q
	for hi-lo > 1 {
		half := (hi - lo) / 2
		if idx < lo+half {
			s.add(doSend, leader(idx+half), workBuf, off(lo+half), off(hi))
			s.add(doRight, leader(idx+half), workBuf, off(lo), off(lo+half))
			hi = lo + half
		} else {
			s.add(doSend, leader(idx-half), workBuf, off(lo), off(lo+half))
			s.add(doLeft, leader(idx-half), workBuf, off(lo+half), off(hi))
			lo += half
		}
	}
	halving := len(s.steps)
	s.push(step{act: doKeep, peer: -1, buf: outBuf, src: workBuf, lo: off(lo), hi: off(hi)})
	for i := halving - 2; i >= first; i -= 2 {
		shipped, kept := s.steps[i], s.steps[i+1]
		s.add(doSend, kept.peer, outBuf, kept.lo, kept.hi)
		s.add(doCopy, shipped.peer, outBuf, shipped.lo, shipped.hi)
	}
	if rank < 2*r {
		s.add(doSend, rank+1, outBuf, 0, m)
	}
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
	return exec(c, op, x, "ReducePipelined", 1, genPipeline, segments)
}

// pipeline is ReducePipelined's schedule, with parts clamped to [1, m]
// segments: every rank but the chain's tail combines each arriving
// segment into its own (own block left: it is the lower rank), and every
// rank but the root forwards it.
func pipeline(s *schedule, p, rank, m, parts int) {
	k := min(max(parts, 1), m)
	s.start(inBuf, 0, m, 2*k)
	from := workBuf
	if rank == 0 {
		s.res = workBuf
	}
	if rank == p-1 {
		from = inBuf
	}
	for i := 0; i < k; i++ {
		off, sz := chunkBounds(m, k, i)
		if rank < p-1 {
			s.add(doRight, rank+1, workBuf, off, off+sz)
		}
		if rank > 0 {
			s.add(doSend, rank-1, from, off, off+sz)
		}
	}
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
	return exec(c, op, x, "ReduceScatter", c.Size(), genReduceScatter, 0)
}

// AllReduceRing computes the all-reduction of Vec blocks with the ring
// algorithm: reduce-scatter followed by an allgather of the chunks —
// 2(p−1) steps of m/p words each, total bandwidth ~2m per member. The
// classic large-block all-reduce.
func AllReduceRing(c Comm, op *algebra.Op, x Value) Value {
	return exec(c, op, x, "AllReduceRing", c.Size(), genRing, 0)
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
	return exec(c, op, x, "AllReduceRingBi", 2*c.Size(), genRingBi, 0)
}

// ringDir is one direction of a ring over the block range [base,
// base+size), split into p chunks as chunkBounds splits it: d = +1 sends
// to the next rank and receives from the previous one, d = −1 the mirror.
type ringDir struct{ p, rank, d, base, size int }

// chunk is the word range of the chunk o places behind the rank's own in
// the direction's order.
func (g ringDir) chunk(o int) (lo, hi int) {
	off, sz := chunkBounds(g.size, g.p, ((g.rank-g.d*o)%g.p+g.p)%g.p)
	return g.base + off, g.base + off + sz
}

// round appends step i: in the reduce-scatter, chunk i+1 of work goes out
// and chunk i+2 comes in, combined incoming left (it carries the ranks
// behind this one in ring order); in the allgather, chunk i of out goes
// out and chunk i+1 comes in. After p−1 reduce steps the rank's own chunk,
// chunk 0, is complete.
func (g ringDir) round(s *schedule, i int, gather bool) {
	buf, act, o := workBuf, doLeft, i+1
	if gather {
		buf, act, o = outBuf, doCopy, i
	}
	lo, hi := g.chunk(o)
	s.add(doSend, (g.rank+g.d+g.p)%g.p, buf, lo, hi)
	lo, hi = g.chunk(o + 1)
	s.add(act, (g.rank-g.d+g.p)%g.p, buf, lo, hi)
}

// rings is the schedule of one ring direction or two run side by side:
// p−1 reduce-scatter rounds, then, when gather is set, each direction's
// own chunk kept into out and p−1 allgather rounds. With two directions a
// round posts both sends before either receive, so their transfers are in
// flight together — except in a group of two, where both share the one
// link and take a round each. Without gather the result is the rank's own
// chunk, in work.
func rings(s *schedule, p, m int, gather bool, dirs ...ringDir) {
	s.start(outBuf, 0, m, 4*len(dirs)*(p-1)+len(dirs))
	if !gather {
		s.res = workBuf
		s.lo, s.hi = dirs[0].chunk(0)
	}
	phase := func(gather bool) {
		for i := 0; i < p-1; i++ {
			n := len(s.steps)
			for _, g := range dirs {
				g.round(s, i, gather)
			}
			if len(dirs) == 2 && p > 2 {
				s.steps[n+1], s.steps[n+2] = s.steps[n+2], s.steps[n+1]
			}
		}
	}
	phase(false)
	if gather {
		for _, g := range dirs {
			lo, hi := g.chunk(0)
			s.push(step{act: doKeep, peer: -1, buf: outBuf, src: workBuf, lo: lo, hi: hi})
		}
		phase(true)
	}
}

// portfolio maps each algorithm ReduceBy can run to its generators of
// the rooted reduction and of the all-reduction, genNone where it has none.
var portfolio = map[cost.Algo][2]generator{
	cost.AlgoButterfly:    {genReduce, genAllReduce},
	cost.AlgoRabenseifner: {genNone, genRabenseifner},
	cost.AlgoRing:         {genNone, genRing},
	cost.AlgoRingBi:       {genNone, genRingBi},
	cost.AlgoPipeline:     {genPipeline, genNone},
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
	collective, i := cost.CollReduce, 0
	if all {
		collective, i = cost.CollAllReduce, 1
	}
	gen := portfolio[a][i]
	vec, isVec := x.(algebra.Vec)
	if a == cost.AlgoButterfly || gen == genNone || !cost.Admits(a, op) || !isVec ||
		!cost.Applicable(collective, a, cost.Params{P: c.Size(), M: len(vec)}) {
		gen, segments = portfolio[cost.AlgoButterfly][i], 0 // the butterfly reduction's root
	}
	return exec(c, op, x, string(a), 0, gen, segments)
}
