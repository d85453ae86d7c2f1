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
	fblocks := chunk(flags, mach.P)
	vblocks := chunk(values, mach.P)
	out := make([]float64, len(values))
	offsets := make([]int, mach.P)
	off := 0
	for i := range vblocks {
		offsets[i] = off
		off += len(vblocks[i])
	}
	res := mach.virtual().Run(func(c *machine.Proc) {
		copy(out[offsets[c.Rank()]:], segScanRank(c, fblocks[c.Rank()], vblocks[c.Rank()]))
	})
	return out, res
}

// segScanRank is one rank's part of a segmented scan of its block: the
// local segmented scan, and one scan of the (flag, value) block summaries
// whose result, shifted one rank to the right, is the carry each rank's
// elements before its block's first flag absorb.
func segScanRank(c coll.Comm, fb []bool, vb []float64) algebra.Vec {
	seg := algebra.OpSegmented(algebra.Add)
	local := make(algebra.Vec, len(vb))
	// An empty block keeps the initial (no flag, zero value) summary,
	// which is a unit of op_seg.
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

	incl := coll.Scan(c, seg, summary)
	tag := c.NextTag()
	if c.Rank()+1 < c.Size() {
		c.Send(c.Rank()+1, incl, tag)
	}
	if c.Rank() > 0 {
		carry := c.Recv(c.Rank()-1, tag)
		cv := float64(carry.(algebra.Tuple)[1].(algebra.Scalar))
		for i := range vb {
			if fb[i] {
				break
			}
			local[i] += cv
		}
		c.Compute(float64(len(vb)))
	}
	return local
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
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
