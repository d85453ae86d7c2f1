// Package coll implements the collective operations of the paper over a
// communicator — a rank of any backend: broadcast, reduction, all-reduction
// and scan with the butterfly/binomial implementations whose costs §4.1
// estimates, plus the paper's new collectives — reduce_balanced and
// scan_balanced (§3.2, §3.3), which tolerate the non-associative derived
// operators, and the two comcast implementations of §3.4 (the cost-optimal
// doubling scheme and the faster bcast-plus-repeat scheme).
//
// Every collective is an SPMD call over a Comm — the communicator naming
// the participating group (a backend's rank for its whole machine, Sub or
// Split for subgroups); Comm's documentation also states the ownership
// protocol of the values that cross it. All group members run the same call
// inside Machine.Run; on the virtual machine each call charges the
// processor clocks with the transfer and computation costs of the model
// (ts + m·tw per transfer, one unit per elementary operation), so the
// Makespan of a run is directly comparable with the paper's estimates.
//
// Combining is always performed in rank order (lower-rank operand on the
// left), so non-commutative associative operators are handled correctly
// for any group size, not only powers of two.
//
// # Results
//
// A collective returns its result in the form its operator works in,
// drawn from the rank's arena and valid until the machine's next run: a
// derived operator's (op_sr2, op_ss, …) is an algebra.FlatTuple, which no
// collective rewrites once it has returned it, and which the next stage
// takes as it is. BcastRepeat, Comcast and Iter return π₁ of their flat
// state, a view at every block length (algebra.First). Only Gather and the
// halo exchanges box a flat tuple, before they nest it; package core's doc
// lists every place a run boxes.
package coll

import (
	"math/bits"

	"repro/internal/algebra"
)

// Value is the per-processor datum; an alias re-exported for convenience.
type Value = algebra.Value

// log2Ceil returns ceil(log2 n) for n ≥ 1.
func log2Ceil(n int) int { return bits.Len(uint(n - 1)) }

// log2Floor returns floor(log2 n) for n ≥ 1.
func log2Floor(n int) int { return bits.Len(uint(n)) - 1 }

// IsPow2 reports whether n is a power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Bcast broadcasts the root's value to every group member using the
// binomial doubling tree: log p phases of one transfer each, time
// log p · (ts + m·tw) — equation (15). Non-root input values are ignored,
// mirroring bcast [x1, _, …, _] = [x1, x1, …, x1].
func Bcast(c Comm, root int, x Value) Value { return exec(c, nil, x, "Bcast", 0, genBcast, root) }

// bcast is Bcast's schedule: in phase k the virtual ranks (the root is 0)
// below 2^k, which hold the value, send it 2^k up.
func bcast(s *schedule, p, rank, root int) {
	vr := (rank - root + p) % p
	s.startWhole(msgBuf, log2Ceil(p))
	if vr == 0 {
		s.res = inBuf
	}
	for bit := 1; bit < p; bit <<= 1 {
		switch {
		case vr < bit && vr+bit < p:
			s.with(doSend, (vr+bit+root)%p, s.res)
		case vr >= bit && vr < bit<<1:
			s.with(doCopy, (vr-bit+root)%p, msgBuf)
		}
	}
}

// Reduce combines the group's values with the associative operator op,
// leaving the result on the root and every other member's value
// unchanged: reduce (⊕) [x1,…,xn] = [y, x2, …, xn] with
// y = x1 ⊕ … ⊕ xn. The implementation is the mirrored binomial tree:
// log p phases of one transfer and one combine, time
// log p · (ts + m·(tw+1)) — equation (16).
func Reduce(c Comm, root int, op *algebra.Op, x Value) Value {
	return exec(c, op, x, "Reduce", 0, genReduce, root)
}

// reduce is Reduce's schedule, the broadcast tree run backwards: in phase
// k a virtual rank with bit k set moves its accumulator, which covers
// virtual ranks [vr, vr+2^k), to its parent and drops out.
func reduce(s *schedule, p, rank, root int) {
	vr := (rank - root + p) % p
	s.startWhole(inBuf, log2Ceil(p))
	if vr == 0 && p > 1 {
		s.res = workBuf
	}
	for bit := 1; bit < p; bit <<= 1 {
		if vr&bit != 0 {
			s.with(doMove, (vr-bit+root)%p, workBuf)
			break
		}
		if vr+bit < p {
			s.with(doRight, (vr+bit+root)%p, workBuf)
		}
	}
}

// AllReduce combines the group's values with the associative operator op
// and delivers the result to every member:
// allreduce (⊕) [x1,…,xn] = [y, y, …, y]. For a power-of-two group it is
// the pure butterfly — log p phases of one exchange and one combine, the
// same cost as Reduce. For other group sizes, adjacent pairs fold into
// group leaders first, the leaders run the butterfly, and the result
// unfolds, preserving rank-ordered combining for non-commutative
// operators.
func AllReduce(c Comm, op *algebra.Op, x Value) Value {
	return exec(c, op, x, "AllReduce", 0, genAllReduce, 0)
}

// allReduce is AllReduce's schedule. Of each folded pair (2i, 2i+1),
// i < r = p − q, the odd member moves its block to the even one, which
// combines it on the right and leads (leader i is rank i + min(i, r)),
// and receives the result at the end; the q = 2^⌊log p⌋ leaders exchange
// and combine in leader order.
func allReduce(s *schedule, p, rank int) {
	if p == 1 {
		s.startWhole(inBuf, 0)
		return
	}
	q := 1 << log2Floor(p)
	r := p - q
	s.startWhole(workBuf, 2*log2Floor(q)+2)
	idx := rank - r
	if rank < 2*r {
		if rank%2 == 1 {
			s.with(doMove, rank-1, workBuf)
			s.with(doCopy, rank-1, outBuf)
			s.res = outBuf
			return
		}
		s.with(doRight, rank+1, workBuf)
		idx = rank / 2
	}
	for bit := 1; bit < q; bit <<= 1 {
		partner := idx ^ bit
		s.with(doSwap, partner+min(partner, r), workBuf)
		if partner < idx {
			s.with(doLeft, -1, workBuf)
		} else {
			s.with(doRight, -1, workBuf)
		}
	}
	if rank < 2*r {
		s.with(doSend, rank+1, workBuf)
	}
}

// Scan computes the inclusive parallel prefix with the associative
// operator op: scan (⊕) [x1,…,xn] = [x1, x1⊕x2, …, x1⊕…⊕xn]. The
// power-of-two case is the classic butterfly maintaining (prefix, total):
// log p phases of one exchange, each charged two combines, time
// log p · (ts + m·(tw+2)) — equation (17). Other group sizes use the same
// fold/unfold scheme as AllReduce, with leaders additionally tracking the
// exclusive prefix they must hand back to their folded partner.
//
// A rank performs only the combines it reads. The last phase's total is
// charged but not computed, and in phase 0 a rank whose partner is lower
// computes recvTotal ⊕ x once, as prefix and total. At p = 2^L ≥ 4 that
// is 1.5·p·(L − 1) combines per word of the 1.5·p·L charged, and the
// same result bits. It ships only what is read too: in the last phase
// only the higher partner reads a total, so the lower one sends and does
// not receive — p·(L − ½) messages where equation (17) counts p·L start-ups
// on the critical path, which this leaves as it was.
func Scan(c Comm, op *algebra.Op, x Value) Value { return exec(c, op, x, "Scan", 0, genScan, 0) }

// scan is Scan's schedule. Of each folded pair (2i, 2i+1), i < r = p − 2^L,
// the even member sends its block to the odd one, which combines it on
// the left and leads (leader i is rank i + min(i+1, r)), carrying the
// pair's segment; the leader's inclusive prefix is then the pair's, and it
// hands its exclusive prefix back (the empty one, Undef, when it has
// none). A leader keeps its prefix in work, the total it ships in out and
// the exclusive prefix in excl. In phase 0 a leader whose partner is lower
// computes the prefix once and shares it as the total; the last phase's
// total is charged, not computed. The last phase is one-way: the lower
// partner sends its total as a borrow, which the higher one receives and
// no combine adopts, so its exclusive prefix can still read it.
func scan(s *schedule, p, rank int) {
	if p == 1 {
		s.startWhole(inBuf, 0)
		return
	}
	L := log2Floor(p)
	r := p - 1<<L
	s.startWhole(workBuf, 4*L+4)
	idx := rank - r
	if rank < 2*r {
		if rank%2 == 0 {
			s.with(doSend, rank+1, workBuf)
			s.with(doPrefix, rank+1, workBuf)
			return
		}
		s.with(doLeft, rank-1, workBuf)
		idx = rank / 2
	}
	s.push(step{act: doKeep, peer: -1, buf: outBuf, src: workBuf})
	for k := 0; k < L; k++ {
		partner := idx ^ 1<<k
		last := k == L-1
		peer, charged := partner+min(partner+1, r), msgBuf
		switch {
		case !last:
			s.with(doSwap, peer, outBuf)
		case partner > idx:
			s.with(doSend, peer, outBuf)
			charged = outBuf
		default:
			s.with(doCopy, peer, msgBuf)
		}
		switch {
		case partner < idx:
			s.with(doLeft, -1, workBuf)
			if rank < 2*r {
				// An extra combine beyond the paper's two per phase.
				if idx&(1<<k-1) == 0 {
					s.push(step{act: doKeep, peer: -1, buf: exclBuf, src: msgBuf})
				} else {
					s.with(doLeft, -1, exclBuf)
				}
			}
			if k == 0 {
				s.push(step{act: doKeep, peer: -1, buf: outBuf, src: workBuf})
				if !last {
					s.push(step{act: doCharge, peer: -1, buf: outBuf, src: outBuf})
				}
			} else if !last {
				s.with(doLeft, -1, outBuf)
			}
		case !last:
			s.with(doRight, -1, outBuf)
		}
		if last {
			// An undetermined operand (a non-root's gather) makes it free;
			// the lower partner sees only its own.
			s.push(step{act: doCharge, peer: -1, buf: outBuf, src: charged})
		}
	}
	if rank < 2*r {
		s.with(doSend, rank-1, exclBuf)
	}
}
