package coll

import (
	"repro/internal/algebra"
)

// BcastRepeat implements the comcast pattern — rank i receives g^i(b) for
// the root's datum b — the way the Comcast rules of §3.4 do: broadcast b,
// then every member locally runs the logarithmic repeat schema (equation
// (14)) over the binary digits of its rank, applying the rule's e/o step
// pair, and projects the first component. Despite the redundant
// computation (all members rerun the low digits), this is the faster
// implementation: time log p · (ts + m·tw) for the broadcast plus at most
// log p · costO · m local work, with no extra start-ups.
func BcastRepeat(c Comm, root int, ops *algebra.RepeatOps, b Value) Value {
	v := Bcast(c, root, b)
	k := (c.Rank() - root + c.Size()) % c.Size()
	w := ops.RepeatIn(c.Caps().Arena, nil, k, v)
	c.Compute(ops.RepeatCharge(k, v.Words()))
	return algebra.First(w)
}

// Comcast implements the same pattern with the cost-optimal doubling
// scheme the paper discusses (and measures as "comcast" in Figures 7 and
// 8): instead of broadcasting b, rank 0 computes e and o on its working
// tuple and ships the o result to rank 1; the step then repeats with two
// members, four, and so on. Total work is optimal — every g^i(b) is
// computed once — but each of the log p rounds ships a whole working
// tuple (Arity·m words) and performs both e and o on the critical path,
// which is why the paper finds it slower than BcastRepeat.
func Comcast(c Comm, root int, ops *algebra.RepeatOps, b Value) Value {
	tag := c.NextTag()
	n := c.Size()
	ar := c.Caps().Arena
	vrank := (c.Rank() - root + n) % n
	var w, own Value // own is w when this member may rewrite it
	if vrank == 0 {
		w = ops.RepeatIn(ar, nil, 0, b)
		own = w
	}
	for k := 0; k < log2Ceil(n); k++ {
		bit := 1 << k
		switch {
		case vrank < bit:
			// This member holds g^vrank; spawn g^(vrank+2^k) at the
			// doubled partner, in a buffer of its own that the send
			// freezes, then advance the own state with e: in place,
			// unless it is the frozen state the doubling source sent. Each
			// step is charged by the block length of the state it steps:
			// a non-root's input is not read.
			m := float64(w.Words()) / float64(ops.Arity)
			if vrank+bit < n {
				c.Send((vrank+bit+root)%n, ops.StepIn(ar, nil, w, true), tag)
				c.Compute(float64(ops.CostO) * m)
			}
			w = ops.StepIn(ar, own, w, false)
			own = w
			c.Compute(float64(ops.CostE) * m)
		case vrank < bit<<1:
			w, own = c.Recv((vrank-bit+root)%n, tag), nil
		}
	}
	return algebra.First(w)
}
