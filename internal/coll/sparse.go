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
// inputs are only ever borrowed (plain Send), received borrows are never
// written but may be forwarded unchanged (AllGatherV's ring does), and
// combining targets arena scratch this rank owns. Their bookkeeping —
// distinct peers, displacements — needs no heap up to stackPeers entries,
// so a warm call allocates nothing but the halo's result tuple.

// stackPeers bounds the bookkeeping a sparse collective does without the
// heap; past it the bookkeeping moves to the heap, at the same linear work.
const stackPeers = 16

// firstOf finds the first of n positions with position j's key: by a scan
// up to stackPeers positions, through a map past that. A halo keeps what
// it received in its result tuple, at each peer's first position.
type firstOf struct {
	key   func(j int) int
	index map[int]int // key → first position; nil up to stackPeers positions
}

func newFirstOf(n int, key func(j int) int) firstOf {
	f := firstOf{key: key}
	if n > stackPeers {
		f.index = make(map[int]int, n)
		for j := n - 1; j >= 0; j-- {
			f.index[key(j)] = j
		}
	}
	return f
}

func (f firstOf) at(j int) int {
	k := f.key(j)
	if f.index != nil {
		return f.index[k]
	}
	i := 0
	for f.key(i) != k {
		i++
	}
	return i
}

// HaloExchange performs the isomorphic neighborhood exchange on c:
// the caller receives ⟨x from rank (r+o) mod p : o ∈ offsets⟩ as a
// Tuple in offset order. Offsets congruent mod p (including 0 and
// duplicates) are served locally or by a single message, so the
// message count per rank is the number of distinct nonzero offsets
// mod p. The result tuple is drawn from the rank's arena: it is valid
// until the machine's next run. A flat tuple x is boxed first, since the
// result nests it.
func HaloExchange(c Comm, offsets []int, x Value) Value {
	x = algebra.Boxed(x)
	n := c.Size()
	r := c.Rank()
	tag := c.NextTag()
	// Once per distinct nonzero delta d, in first-occurrence order, the
	// rank pushes to (r−d) mod n and pulls from (r+d) mod n.
	delta := func(j int) int { return ((offsets[j] % n) + n) % n }
	first := newFirstOf(len(offsets), delta)
	for j := range offsets {
		if d := delta(j); d != 0 && first.at(j) == j {
			c.Send((r-d+n)%n, x, tag)
		}
	}
	out, res := c.Caps().Arena.Tuple(len(offsets))
	for j := range offsets {
		switch d := delta(j); {
		case d == 0:
			out[j] = x
		case first.at(j) == j:
			out[j] = c.Recv((r+d)%n, tag)
		default:
			out[j] = out[first.at(j)]
		}
	}
	return res
}

// HaloExchangeLists performs the non-isomorphic neighborhood exchange:
// lists[i] names the absolute source ranks of rank i, and the caller
// receives its sources' blocks as a Tuple in list order. len(lists)
// must equal the group size. Duplicate sources and self-edges are
// served by at most one message per directed pair. The result tuple is
// drawn from the rank's arena, and x boxed first, as in HaloExchange.
func HaloExchangeLists(c Comm, lists [][]int, x Value) Value {
	x = algebra.Boxed(x)
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
	srcs := lists[r]
	first := newFirstOf(len(srcs), func(j int) int { return srcs[j] })
	out, res := c.Caps().Arena.Tuple(len(srcs))
	for j, src := range srcs {
		switch {
		case src == r:
			out[j] = x
		case first.at(j) == j:
			out[j] = c.Recv(src, tag)
		default:
			out[j] = out[first.at(j)]
		}
	}
	return res
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
	var buf [stackPeers]int
	displs, total := displsOf(buf[:0], counts)
	res := c.Caps().Arena.Vec(total)
	out := res.(algebra.Vec)
	copy(out[displs[r]:displs[r]+counts[r]], v)
	if n == 1 {
		return res
	}
	tag := c.NextTag()
	next, prev := (r+1)%n, (r-1+n)%n
	// Round 0 sends x itself; round k > 0 forwards the block received in
	// round k−1, which is the one the ring sends next, boxed and frozen.
	fwd := x
	for k := 0; k < n-1; k++ {
		sendOrig := (r - k + n) % n
		recvOrig := (prev - k + n) % n
		if counts[sendOrig] > 0 {
			c.Send(next, fwd, tag)
		}
		if counts[recvOrig] > 0 {
			fwd = c.Recv(prev, tag)
			blk, ok := fwd.(algebra.Vec)
			if !ok || len(blk) != counts[recvOrig] {
				panic(fmt.Sprintf("coll: allgatherv rank %d expected %d words from %d", r, counts[recvOrig], prev))
			}
			copy(out[displs[recvOrig]:], blk)
		}
	}
	return res
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
	var buf [stackPeers]int
	displs, total := displsOf(buf[:0], counts)
	v, ok := x.(algebra.Vec)
	if !ok || len(v) != total {
		panic(fmt.Sprintf("coll: reduce_scatterv rank %d needs a %d-word vector, got %v", r, total, x))
	}
	tag := c.NextTag()
	ar := c.Caps().Arena
	// Every slice of x travels, and is combined, as an arena copy: a view
	// of x would box a slice header per send.
	for j := 0; j < n; j++ {
		if j == r || counts[j] == 0 {
			continue
		}
		c.Send(j, arenaCopy(ar, v[displs[j]:displs[j]+counts[j]]), tag)
	}
	if counts[r] == 0 {
		// Nothing owned here; peers skip empty destinations symmetrically.
		return ar.Vec(0)
	}
	var acc Value
	owned := false
	for j := 0; j < n; j++ {
		var contrib Value
		if j == r {
			contrib = arenaCopy(ar, v[displs[r]:displs[r]+counts[r]])
		} else {
			contrib = c.Recv(j, tag)
		}
		if acc == nil {
			acc, owned = contrib, j == r // the own copy is scratch never shipped
			continue
		}
		dst := acc
		if !owned {
			dst = nil // the combine draws its result
		}
		acc = op.ApplyIn(ar, dst, acc, contrib)
		owned = true
		c.Compute(op.Charge(acc))
	}
	return acc
}

// arenaCopy returns an arena copy of v, pre-boxed.
func arenaCopy(ar *algebra.Arena, v algebra.Vec) Value {
	cp := ar.Vec(len(v))
	copy(cp.(algebra.Vec), v)
	return cp
}

// displsOf appends to d the exclusive prefix sums of counts (the rank
// displacements into the flat concatenation) and returns them with the
// total.
func displsOf(d, counts []int) ([]int, int) {
	sum := 0
	for _, cnt := range counts {
		d = append(d, sum)
		sum += cnt
	}
	return d, sum
}
