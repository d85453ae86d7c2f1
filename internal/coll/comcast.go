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
	m := v.Words()
	k := (c.Rank() - root + c.Size()) % c.Size()
	if vec, ok := v.(algebra.Vec); ok && ops.FlatE != nil && ops.FlatO != nil && len(vec) > 0 {
		// Flat repeat: duplicate the broadcast block into one flat
		// working tuple and iterate the digit steps in place.
		w := c.Caps().Arena.Flat(ops.Arity, len(vec))
		for i := 0; i < ops.Arity; i++ {
			copy(w.Comp(i), vec)
		}
		ops.RepeatInto(k, w)
		c.Compute(ops.RepeatCharge(k, m))
		return algebra.First(w)
	}
	w := ops.Repeat(k, ops.Prepare(v))
	c.Compute(ops.RepeatCharge(k, m))
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
	m := b.Words()
	useFlat := ops.FlatE != nil && ops.FlatO != nil
	var w Value
	owned := false
	if vrank == 0 {
		if vec, ok := b.(algebra.Vec); ok && useFlat && len(vec) > 0 {
			f := ar.Flat(ops.Arity, len(vec))
			for i := 0; i < ops.Arity; i++ {
				copy(f.Comp(i), vec)
			}
			w = f
			owned = true
		} else {
			w = ops.Prepare(b)
		}
	}
	for k := 0; k < log2Ceil(n); k++ {
		bit := 1 << k
		switch {
		case vrank < bit:
			// This member holds g^vrank; spawn g^(vrank+2^k) at the
			// doubled partner, then advance the own state with e.
			if vrank+bit < n {
				var spawned Value
				if ft, ok := w.(*algebra.FlatTuple); ok {
					// The spawned state escapes into a message: it gets
					// its own buffer, frozen once sent.
					d := ar.Flat(ft.W, ft.M())
					ops.FlatO(d, ft)
					spawned = d
				} else {
					spawned = ops.O(w)
				}
				c.Compute(float64(ops.CostO) * float64(m))
				dst := (vrank + bit + root) % n
				c.Send(dst, spawned, tag)
			}
			if ft, ok := w.(*algebra.FlatTuple); ok {
				// A state received from the doubling source is frozen;
				// the first e-step after a receive moves to fresh
				// scratch, later steps rewrite it in place.
				d := ft
				if !owned {
					d = ar.Flat(ft.W, ft.M())
				}
				ops.FlatE(d, ft)
				w = d
				owned = true
			} else {
				w = ops.E(w)
			}
			c.Compute(float64(ops.CostE) * float64(m))
		case vrank < bit<<1:
			src := (vrank - bit + root) % n
			w = c.Recv(src, tag)
			owned = false
		}
	}
	return algebra.First(w)
}
