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
package coll

import "repro/internal/algebra"

// Value is the per-processor datum; an alias re-exported for convenience.
type Value = algebra.Value

// log2Ceil returns ceil(log2 n) for n ≥ 1.
func log2Ceil(n int) int {
	k := 0
	for 1<<k < n {
		k++
	}
	return k
}

// log2Floor returns floor(log2 n) for n ≥ 1.
func log2Floor(n int) int {
	k := 0
	for 1<<(k+1) <= n {
		k++
	}
	return k
}

// IsPow2 reports whether n is a power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// Bcast broadcasts the root's value to every group member using the
// binomial doubling tree: log p phases of one transfer each, time
// log p · (ts + m·tw) — equation (15). Non-root input values are ignored,
// mirroring bcast [x1, _, …, _] = [x1, x1, …, x1].
func Bcast(c Comm, root int, x Value) Value {
	tag := c.NextTag()
	n := c.Size()
	if n == 1 {
		return x
	}
	// Rotate ranks so the root is virtual rank 0.
	vr := (c.Rank() - root + n) % n
	v := x
	have := vr == 0
	for k := 0; k < log2Ceil(n); k++ {
		bit := 1 << k
		switch {
		case have && vr+bit < n:
			dst := (vr + bit + root) % n
			c.Send(dst, v, tag)
		case !have && vr >= bit && vr < bit<<1:
			src := (vr - bit + root) % n
			v = c.Recv(src, tag)
			have = true
		}
	}
	return v
}

// Reduce combines the group's values with the associative operator op,
// leaving the result on the root and every other member's value
// unchanged: reduce (⊕) [x1,…,xn] = [y, x2, …, xn] with
// y = x1 ⊕ … ⊕ xn. The implementation is the mirrored binomial tree:
// log p phases of one transfer and one combine, time
// log p · (ts + m·(tw+1)) — equation (16).
func Reduce(c Comm, root int, op *algebra.Op, x Value) Value {
	tag := c.NextTag()
	n := c.Size()
	if n == 1 {
		return x
	}
	ar := c.Caps().Arena
	vr := (c.Rank() - root + n) % n
	v, owned := toWork(ar, op, x)
	done := false
	for k := 0; k < log2Ceil(n) && !done; k++ {
		bit := 1 << k
		if vr&bit != 0 {
			// Send the accumulated value (covering [vr, vr+bit) in
			// virtual-rank order) to the parent and drop out. The rank
			// never combines after sending, so shipping its scratch
			// buffer is safe — and when the buffer is owned scratch the
			// send moves ownership outright: the parent may combine into
			// it in place, and on a zero-copy transport nothing is copied.
			dst := (vr - bit + root) % n
			if owned {
				c.SendMove(dst, v, tag)
			} else {
				c.Send(dst, v, tag)
			}
			done = true
		} else if vr+bit < n {
			src := (vr + bit + root) % n
			r, adopted := c.RecvOwned(src, tag)
			// Own value covers lower virtual ranks: combine own ⊕ recv —
			// in place into the accumulator once it is owned scratch, or
			// into the received buffer when the child moved it here.
			v = op.ApplyInto(dstForOwned(ar, v, owned, r, adopted), v, r)
			owned = true
			c.Compute(op.Charge(v))
		}
	}
	if vr == 0 {
		return fromWork(v)
	}
	return x
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
	tag := c.NextTag()
	n := c.Size()
	if n == 1 {
		return x
	}
	ar := c.Caps().Arena
	rank := c.Rank()
	q := 1 << log2Floor(n)
	r := n - q
	v, owned := toWork(ar, op, x)
	// Fold: pairs (2i, 2i+1) for i < r combine into leader 2i.
	isLeader := true
	leaderIdx := rank // index within the q leaders
	if rank < 2*r {
		if rank%2 == 1 {
			// The fold send is terminal for this rank's accumulator (it
			// only receives from here on), so an owned buffer moves.
			if owned {
				c.SendMove(rank-1, v, tag)
			} else {
				c.Send(rank-1, v, tag)
			}
			isLeader = false
		} else {
			hi, adopted := c.RecvOwned(rank+1, tag)
			v = op.ApplyInto(dstForOwned(ar, v, owned, hi, adopted), v, hi)
			c.Compute(op.Charge(v))
			leaderIdx = rank / 2
		}
	} else {
		leaderIdx = rank - r
	}
	leaderRank := func(idx int) int {
		if idx < r {
			return 2 * idx
		}
		return idx + r
	}
	if isLeader {
		for k := 0; k < log2Floor(q); k++ {
			partnerIdx := leaderIdx ^ (1 << k)
			partner := leaderRank(partnerIdx)
			recv := c.Exchange(partner, v, tag)
			// v was just shipped — the partner may still be reading it —
			// so every butterfly round combines into a fresh arena
			// buffer rather than in place.
			d := scratchLike(ar, recv)
			if partnerIdx < leaderIdx {
				v = op.ApplyInto(d, recv, v)
			} else {
				v = op.ApplyInto(d, v, recv)
			}
			c.Compute(op.Charge(v))
		}
		if rank < 2*r {
			c.Send(rank+1, v, tag)
		}
		return fromWork(v)
	}
	return fromWork(c.Recv(rank-1, tag))
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
// same result bits.
func Scan(c Comm, op *algebra.Op, x Value) Value {
	tag := c.NextTag()
	n := c.Size()
	if n == 1 {
		return x
	}
	rank := c.Rank()
	q := 1 << log2Floor(n)
	r := n - q
	// Fold: pairs (2i, 2i+1) for i < r combine into leader 2i+1, which
	// carries the pair's segment; the leader's own inclusive prefix then
	// equals the pair's, and the folded partner needs the leader's
	// exclusive prefix afterwards.
	ar := c.Caps().Arena
	v, _ := toWork(ar, op, x)
	isLeader := true
	leaderIdx := rank
	if rank < 2*r {
		if rank%2 == 0 {
			c.Send(rank+1, v, tag)
			isLeader = false
		} else {
			lo := c.Recv(rank-1, tag)
			v = op.ApplyInto(scratchLike(ar, lo), lo, v)
			c.Compute(op.Charge(v))
			leaderIdx = rank / 2
		}
	} else {
		leaderIdx = rank - r
	}
	leaderRank := func(idx int) int {
		if idx < r {
			return 2*idx + 1
		}
		return idx + r
	}
	if !isLeader {
		// Receive the leader's exclusive prefix (Undef if empty) and
		// append the own element.
		ex := c.Recv(rank+1, tag)
		if algebra.IsUndef(ex) {
			return x
		}
		res := op.ApplyInto(scratchLike(ar, ex), ex, v)
		c.Compute(op.Charge(res))
		return fromWork(res)
	}
	// prefix, total and excl all start out aliasing (or holding) buffers
	// this rank does not own for writing: total is shipped every round
	// and prefix/excl initially share its storage or hold a partner's
	// buffer. Each accumulator therefore combines into a fresh arena
	// destination the first time and in place from then on — excl is
	// never shipped, and prefix only once, as phase 1's total, after
	// which it is disowned again — so the in-place combine is safe.
	prefix := v // inclusive prefix over the leader's segment block
	prefOwned := false
	total := v
	var excl Value // exclusive prefix; nil means empty
	exclOwned := false
	phases := log2Floor(q)
	for k := 0; k < phases; k++ {
		partnerIdx := leaderIdx ^ (1 << k)
		partner := leaderRank(partnerIdx)
		recvTotal := c.Exchange(partner, total, tag)
		last := k == phases-1
		if partnerIdx < leaderIdx {
			// The partner's block precedes ours in index order.
			prefix = op.ApplyInto(dstFor(ar, prefix, prefOwned, recvTotal), recvTotal, prefix)
			prefOwned = true
			c.Compute(op.Charge(prefix))
			// Exclusive-prefix upkeep is only needed by leaders of
			// folded pairs; it is an extra combine beyond the paper's
			// two per phase, performed and charged only in that case.
			if rank < 2*r {
				if excl == nil {
					excl = recvTotal
				} else {
					excl = op.ApplyInto(dstFor(ar, excl, exclOwned, recvTotal), recvTotal, excl)
					exclOwned = true
					c.Compute(op.Charge(excl))
				}
			}
			if k == 0 {
				// total was x, the prefix's operand, so it is the prefix;
				// once it ships, the prefix is not written in place.
				total, prefOwned = prefix, false
			} else if !last {
				total = op.ApplyInto(scratchLike(ar, recvTotal), recvTotal, total)
			}
		} else if !last {
			total = op.ApplyInto(scratchLike(ar, recvTotal), total, recvTotal)
		}
		if last {
			// Nothing reads the last total: it is charged, not computed.
			// An undetermined operand (a non-root's gather) makes it wordless.
			c.Compute(min(op.Charge(total), op.Charge(recvTotal)))
		} else {
			c.Compute(op.Charge(total))
		}
	}
	if rank < 2*r {
		if excl == nil {
			c.Send(rank-1, algebra.Undef{}, tag)
		} else {
			c.Send(rank-1, excl, tag)
		}
	}
	return fromWork(prefix)
}
