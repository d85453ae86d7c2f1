package coll

import (
	"fmt"

	"repro/internal/algebra"
)

// This file provides alternative implementations of the basic collectives.
// §4.1 notes that the cost estimation "must be repeated" if a different
// implementation is used — these variants make that concrete: the flat
// (linear) algorithms that early MPI implementations shipped, and the
// scatter/allgather broadcast of van de Geijn's global-combine work (the
// paper's reference [17]), which beats the binomial tree for large blocks
// by trading start-ups for bandwidth.

// BcastAlg selects a broadcast implementation.
type BcastAlg int

// Broadcast algorithm choices.
const (
	// BcastBinomial is the doubling tree of §4.1: log p start-ups,
	// log p · m words — the implementation the paper's estimates assume.
	BcastBinomial BcastAlg = iota
	// BcastLinear has the root send to each member in turn: p−1
	// start-ups on the root's critical path. The baseline flat tree.
	BcastLinear
	// BcastScatterAllGather splits the block into p chunks, scatters
	// them, and allgathers — van de Geijn's large-message broadcast
	// ([17]): about twice the start-ups of the binomial tree but only
	// ~2m words on the critical path instead of m·log p.
	BcastScatterAllGather
	// BcastPipelined streams the block through a rank chain in chunks:
	// (p−1+k) pipeline slots of (ts + (m/k)·tw) each, approaching m·tw
	// end to end for many chunks — the other classic large-message
	// broadcast, best when p is small relative to m/ts.
	BcastPipelined
)

func (a BcastAlg) String() string {
	switch a {
	case BcastBinomial:
		return "binomial"
	case BcastLinear:
		return "linear"
	case BcastScatterAllGather:
		return "scatter-allgather"
	case BcastPipelined:
		return "pipelined"
	}
	return fmt.Sprintf("BcastAlg(%d)", int(a))
}

// BcastWith broadcasts with the chosen algorithm.
// BcastScatterAllGather requires the value to be a Vec with at least one
// element per group member; other values fall back to the binomial tree.
func BcastWith(c Comm, root int, x Value, alg BcastAlg) Value {
	switch alg {
	case BcastLinear:
		return bcastLinear(c, root, x)
	case BcastScatterAllGather:
		return bcastScatterAllGather(c, root, x)
	case BcastPipelined:
		return bcastPipelined(c, root, x)
	default:
		return Bcast(c, root, x)
	}
}

// pipelineChunks is the chunk count of BcastPipelined. A fixed modest
// value keeps the start-up term (p−1+k)·ts bounded while the per-chunk
// transfer shrinks to m/k words.
const pipelineChunks = 16

func bcastPipelined(c Comm, root int, x Value) Value {
	tag := c.NextTag()
	n := c.Size()
	if n == 1 {
		return x
	}
	// Chain position: virtual rank order starting at the root.
	vr := (c.Rank() - root + n) % n
	prev := (c.Rank() - 1 + n) % n
	next := (c.Rank() + 1) % n
	var vec algebra.Vec
	if vr == 0 {
		v, ok := x.(algebra.Vec)
		if !ok || len(v) < pipelineChunks {
			panic("coll: BcastPipelined needs a Vec block with at least one element per chunk")
		}
		vec = v
		for k := 0; k < pipelineChunks; k++ {
			c.Send(next, chunkOf(vec, k), tag)
		}
		return x
	}
	var parts []algebra.Vec
	for k := 0; k < pipelineChunks; k++ {
		chunk := c.Recv(prev, tag).(algebra.Vec)
		if vr != n-1 {
			c.Send(next, chunk, tag)
		}
		parts = append(parts, chunk)
	}
	out := make(algebra.Vec, 0)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// chunkOf slices chunk k of pipelineChunks from v, remainder-aware.
func chunkOf(v algebra.Vec, k int) algebra.Vec {
	per := len(v) / pipelineChunks
	rem := len(v) % pipelineChunks
	off := 0
	for i := 0; i < k; i++ {
		sz := per
		if i < rem {
			sz++
		}
		off += sz
	}
	sz := per
	if k < rem {
		sz++
	}
	return v[off : off+sz]
}

func bcastLinear(c Comm, root int, x Value) Value {
	tag := c.NextTag()
	n := c.Size()
	if n == 1 {
		return x
	}
	if c.Rank() == root {
		for dst := 0; dst < n; dst++ {
			if dst != root {
				c.Send(dst, x, tag)
			}
		}
		return x
	}
	return c.Recv(root, tag)
}

func bcastScatterAllGather(c Comm, root int, x Value) Value {
	n := c.Size()
	if n == 1 {
		return x
	}
	var vec algebra.Vec
	if c.Rank() == root {
		v, ok := x.(algebra.Vec)
		if !ok || len(v) < n {
			// Signal the fallback to everyone with a zero-length chunk
			// protocol: simplest is to just binomial-broadcast. All
			// members must agree on the shape, so the root decides and
			// the choice must be determinable without communication:
			// callers must pass Vec blocks with len ≥ p on every rank
			// for this algorithm (checked below on all ranks).
			panic("coll: BcastScatterAllGather needs a Vec block with at least one element per member")
		}
		vec = v
	}
	// Chunk boundaries must be agreed on all ranks: ship the length
	// first? The paper's model has all ranks knowing the block size m
	// statically, so we mirror that: non-roots receive their chunk and
	// learn the layout from the allgather.
	var chunks []Value
	if c.Rank() == root {
		chunks = make([]Value, n)
		per := len(vec) / n
		rem := len(vec) % n
		off := 0
		for i := 0; i < n; i++ {
			sz := per
			if i < rem {
				sz++
			}
			chunks[i] = vec[off : off+sz]
			off += sz
		}
	}
	own := Scatter(c, root, chunks)
	parts := AllGather(c, own)
	out := make(algebra.Vec, 0)
	for _, p := range parts {
		out = append(out, p.(algebra.Vec)...)
	}
	return out
}

// ReduceLinear is the flat reduction: every member sends its value to the
// root, which combines in rank order — p−1 start-ups and combines on the
// root's critical path.
func ReduceLinear(c Comm, root int, op *algebra.Op, x Value) Value {
	tag := c.NextTag()
	n := c.Size()
	if n == 1 {
		return x
	}
	if c.Rank() != root {
		c.Send(root, x, tag)
		return x
	}
	// Combine in rank order for non-commutative operators; the
	// accumulator moves to owned scratch on the first combine and stays
	// in place from then on.
	ar := c.Caps().Arena
	var acc Value
	owned := false
	for r := 0; r < n; r++ {
		var v Value
		if r == root {
			v = x
		} else {
			v = c.Recv(r, tag)
		}
		if acc == nil {
			acc = v
		} else {
			acc = op.ApplyInto(dstFor(ar, acc, owned, v), acc, v)
			owned = true
			c.Compute(op.Charge(acc))
		}
	}
	return fromWork(acc)
}

// ScanLinear is the ring-pipelined prefix: member i waits for member
// i−1's prefix, combines, and forwards — p−1 start-ups end to end, but
// only one combine per member. For short pipelines of large blocks it can
// beat the butterfly's log p · 2m computation term.
func ScanLinear(c Comm, op *algebra.Op, x Value) Value {
	tag := c.NextTag()
	n := c.Size()
	rank := c.Rank()
	ar := c.Caps().Arena
	v, _ := toWork(ar, op, x)
	if rank > 0 {
		prev := c.Recv(rank-1, tag)
		// v is about to be shipped downstream; combine into fresh scratch.
		v = op.ApplyInto(scratchLike(ar, prev), prev, v)
		c.Compute(op.Charge(v))
	}
	if rank < n-1 {
		c.Send(rank+1, v, tag)
	}
	return fromWork(v)
}
