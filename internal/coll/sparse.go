package coll

import (
	"fmt"

	"repro/internal/algebra"
)

// This file implements the sparse and irregular collectives (see
// term.Halo, term.AllGatherV, term.ReduceScatterV for the semantics):
//
//   - HaloExchange / HaloExchangeLists: the neighborhood exchange, one
//     message per distinct directed neighbor pair — offsets congruent
//     mod p, duplicated neighbors and self-edges cost nothing.
//   - AllGatherV: the irregular-block allgather as a ring with p−1
//     rounds, skipping empty blocks on both sides.
//   - ReduceScatterV: the irregular-block reduce-scatter as a direct
//     pairwise exchange with rank-ordered combining, so the result is
//     bitwise-identical to the functional semantics' left fold for
//     elementwise operators.
//
// All three follow the ownership discipline of docs/PERF.md: caller
// inputs and slices of them are only ever borrowed (plain Send),
// received borrows are never written, and combining targets arena
// scratch this rank owns.

// HaloExchange performs the isomorphic neighborhood exchange on c:
// the caller receives ⟨x from rank (r+o) mod p : o ∈ offsets⟩ as a
// Tuple in offset order. Offsets congruent mod p (including 0 and
// duplicates) are served locally or by a single message, so the
// message count per rank is the number of distinct nonzero offsets
// mod p.
func HaloExchange(c Comm, offsets []int, x Value) Value {
	n := c.Size()
	r := c.Rank()
	tag := c.NextTag()
	// Distinct nonzero deltas in first-occurrence order: the rank pulls
	// from (r+d) mod n and symmetrically pushes to (r−d) mod n.
	seen := make(map[int]bool, len(offsets))
	var deltas []int
	for _, o := range offsets {
		d := ((o % n) + n) % n
		if d != 0 && !seen[d] {
			seen[d] = true
			deltas = append(deltas, d)
		}
	}
	for _, d := range deltas {
		c.Send((r-d+n)%n, x, tag)
	}
	got := map[int]Value{0: x}
	for _, d := range deltas {
		got[d] = c.Recv((r+d)%n, tag)
	}
	out := make(algebra.Tuple, len(offsets))
	for j, o := range offsets {
		out[j] = got[((o%n)+n)%n]
	}
	return out
}

// HaloExchangeLists performs the non-isomorphic neighborhood exchange:
// lists[i] names the absolute source ranks of rank i, and the caller
// receives its sources' blocks as a Tuple in list order. len(lists)
// must equal the group size. Duplicate sources and self-edges are
// served by at most one message per directed pair.
func HaloExchangeLists(c Comm, lists [][]int, x Value) Value {
	n := c.Size()
	r := c.Rank()
	if len(lists) != n {
		panic(fmt.Sprintf("coll: halo neighborhood pins p=%d, ran at p=%d", len(lists), n))
	}
	tag := c.NextTag()
	for dst := 0; dst < n; dst++ {
		if dst == r {
			continue
		}
		for _, src := range lists[dst] {
			if src == r {
				c.Send(dst, x, tag)
				break
			}
		}
	}
	got := map[int]Value{r: x}
	for _, src := range lists[r] {
		if _, ok := got[src]; !ok {
			got[src] = c.Recv(src, tag)
		}
	}
	out := make(algebra.Tuple, len(lists[r]))
	for j, src := range lists[r] {
		out[j] = got[src]
	}
	return out
}

// AllGatherV gathers ragged blocks — counts[i] words on rank i — into
// the flat rank-ordered concatenation, delivered to every rank. The
// implementation is the standard ring: p−1 rounds, each forwarding the
// block that originated p−1, p−2, … hops upstream, skipping empty
// blocks (counts are global knowledge, so receivers skip symmetrically).
// Time (p−1)·ts + ((p−1)/p)·T·tw for T = Σcounts with equal blocks,
// and no rank sends more than T−counts[r] words for skewed ones.
func AllGatherV(c Comm, counts []int, x Value) Value {
	n := c.Size()
	r := c.Rank()
	if len(counts) != n {
		panic(fmt.Sprintf("coll: allgatherv with %d counts ran at p=%d", len(counts), n))
	}
	v, ok := x.(algebra.Vec)
	if !ok || len(v) != counts[r] {
		panic(fmt.Sprintf("coll: allgatherv rank %d needs a %d-word vector, got %v", r, counts[r], x))
	}
	displs := displsOf(counts)
	total := 0
	for _, cnt := range counts {
		total += cnt
	}
	ar := c.Caps().Arena
	out := ar.Vec(total).(algebra.Vec)
	copy(out[displs[r]:displs[r]+counts[r]], v)
	if n == 1 {
		return out
	}
	tag := c.NextTag()
	next, prev := (r+1)%n, (r-1+n)%n
	for k := 0; k < n-1; k++ {
		sendOrig := (r - k + n) % n
		recvOrig := (prev - k + n) % n
		// Segments already written into out are frozen from the moment
		// they are shipped; later rounds only write other (disjoint)
		// segments, so borrowing sub-slices of out is safe.
		if counts[sendOrig] > 0 {
			c.Send(next, algebra.Vec(out[displs[sendOrig]:displs[sendOrig]+counts[sendOrig]]), tag)
		}
		if counts[recvOrig] > 0 {
			blk, ok := c.Recv(prev, tag).(algebra.Vec)
			if !ok || len(blk) != counts[recvOrig] {
				panic(fmt.Sprintf("coll: allgatherv rank %d expected %d words from %d", r, counts[recvOrig], prev))
			}
			copy(out[displs[recvOrig]:], blk)
		}
	}
	return out
}

// ReduceScatterV combines the ranks' T-word vectors (T = Σcounts) with
// op in rank order and leaves rank i its counts[i]-word slice at its
// displacement. The implementation is direct pairwise: each rank ships
// every peer's slice of its own contribution (one message per pair,
// skipped for empty slices) and combines the p contributions to its own
// slice lowest-rank first, so the result is bitwise-equal to slicing
// the left fold for any elementwise operator.
func ReduceScatterV(c Comm, op *algebra.Op, counts []int, x Value) Value {
	n := c.Size()
	r := c.Rank()
	if len(counts) != n {
		panic(fmt.Sprintf("coll: reduce_scatterv with %d counts ran at p=%d", len(counts), n))
	}
	displs := displsOf(counts)
	total := 0
	for _, cnt := range counts {
		total += cnt
	}
	v, ok := x.(algebra.Vec)
	if !ok || len(v) != total {
		panic(fmt.Sprintf("coll: reduce_scatterv rank %d needs a %d-word vector, got %v", r, total, x))
	}
	tag := c.NextTag()
	for j := 0; j < n; j++ {
		if j == r || counts[j] == 0 {
			continue
		}
		c.Send(j, algebra.Vec(v[displs[j]:displs[j]+counts[j]]), tag)
	}
	ar := c.Caps().Arena
	if counts[r] == 0 {
		// Nothing owned here; still drain nothing — peers skip empty
		// destinations symmetrically.
		return ar.Vec(0)
	}
	var acc Value
	owned := false
	for j := 0; j < n; j++ {
		var contrib Value
		if j == r {
			contrib = algebra.Vec(v[displs[r] : displs[r]+counts[r]])
		} else {
			contrib = c.Recv(j, tag)
		}
		if acc == nil {
			acc = contrib
			continue
		}
		acc = op.ApplyInto(dstFor(ar, acc, owned, contrib), acc, contrib)
		owned = true
		c.Compute(op.Charge(acc))
	}
	return acc
}

// displsOf returns the exclusive prefix sums of counts (the rank
// displacements into the flat concatenation).
func displsOf(counts []int) []int {
	d := make([]int, len(counts))
	sum := 0
	for i, cnt := range counts {
		d[i] = sum
		sum += cnt
	}
	return d
}
