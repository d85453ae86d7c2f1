package apps

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/machine"
)

// SegmentedScan computes per-segment prefix sums of a distributed
// sequence: flags[i] = true starts a new segment at position i, and the
// result at i is the sum of values from its segment's start through i.
// Segmented scan is the workhorse of nested data parallelism (NESL, the
// paper's reference [4]), and it needs no new collective: the segmented
// operator op_seg over (flag, value) pairs is associative, so one
// ordinary scan over block summaries does the global part.
//
// Each processor folds its block locally, one scan of the (flag, value)
// block summaries propagates the carries, and a local fix-up applies each
// processor's carry to its elements before the block's first flag.
func SegmentedScan(mach Machine, flags []bool, values []float64) ([]float64, machine.Result) {
	if len(flags) != len(values) {
		panic(fmt.Sprintf("apps: %d flags for %d values", len(flags), len(values)))
	}
	if len(values) == 0 {
		return nil, machine.Result{}
	}
	fblocks := chunkBools(flags, mach.P)
	vblocks := chunk(values, mach.P)
	seg := algebra.OpSegmented(algebra.Add)
	out := make([]float64, len(values))
	offsets := make([]int, mach.P)
	off := 0
	for i := range vblocks {
		offsets[i] = off
		off += len(vblocks[i])
	}
	res := mach.virtual().Run(func(c *machine.Proc) {
		fb, vb := fblocks[c.Rank()], vblocks[c.Rank()]

		// Local segmented scan, assuming no carry.
		local := make([]float64, len(vb))
		summary := algebra.Value(algebra.Tuple{algebra.Scalar(0), algebra.Scalar(0)})
		for i := range vb {
			elem := algebra.Tuple{algebra.Scalar(b2f(fb[i])), algebra.Scalar(vb[i])}
			if i == 0 {
				summary = elem
			} else {
				summary = seg.Apply(summary, elem)
			}
			local[i] = float64(summary.(algebra.Tuple)[1].(algebra.Scalar))
		}
		c.Compute(float64(2 * len(vb)))
		// An empty block keeps the initial (no flag, zero value)
		// summary, which is a unit of op_seg.

		// Global carries: inclusive scan of summaries, shifted one rank
		// to the right so each processor gets the fold of everything
		// before its block.
		incl := coll.Scan(c, seg, summary)
		tag := c.NextTag()
		if c.Rank()+1 < c.Size() {
			c.Send(c.Rank()+1, incl, tag)
		}
		var carry algebra.Value
		if c.Rank() > 0 {
			carry = c.Recv(c.Rank()-1, tag)
		}

		// Fix-up: elements before the block's first flag absorb the
		// carry (if the carry's own segment reaches into this block).
		if carry != nil && c.Rank() > 0 {
			cv := float64(carry.(algebra.Tuple)[1].(algebra.Scalar))
			for i := range vb {
				if fb[i] {
					break
				}
				local[i] += cv
			}
			c.Compute(float64(len(vb)))
		}
		copy(out[offsets[c.Rank()]:], local)
	})
	return out, res
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// chunkBools splits flags like chunk splits values.
func chunkBools(xs []bool, p int) [][]bool {
	out := make([][]bool, p)
	per := len(xs) / p
	rem := len(xs) % p
	off := 0
	for i := 0; i < p; i++ {
		sz := per
		if i < rem {
			sz++
		}
		out[i] = xs[off : off+sz]
		off += sz
	}
	return out
}

// SeqSegmentedScan is the sequential reference.
func SeqSegmentedScan(flags []bool, values []float64) []float64 {
	out := make([]float64, len(values))
	acc := 0.0
	for i, v := range values {
		if flags[i] {
			acc = v
		} else {
			acc += v
		}
		out[i] = acc
	}
	return out
}
