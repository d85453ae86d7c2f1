package apps

import (
	"sort"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/machine"
)

// SampleSort sorts the distributed sequence with the classic sample-sort
// algorithm, expressed entirely in collective operations (the programming
// style of the paper's reference [5], computational geometry "in good
// programming style"):
//
//  1. every processor sorts its block locally,
//  2. each contributes p regular samples, gathered on the root,
//  3. the root selects p−1 splitters and broadcasts them,
//  4. each processor partitions its block by the splitters,
//  5. one personalized all-to-all redistributes the partitions,
//  6. each processor merges what it received.
//
// The result is returned as one block per processor: block i is sorted
// and everything in block i is ≤ everything in block i+1, so the
// concatenation is the sorted sequence.
func SampleSort(mach Machine, xs []float64) ([][]float64, machine.Result) {
	p := mach.P
	blocks := chunk(xs, p)
	out := make([][]float64, p)
	res := mach.virtual().Run(func(c *machine.Proc) {
		rank := c.Rank()

		// 1. Local sort.
		local := append([]float64(nil), blocks[rank]...)
		sort.Float64s(local)
		c.Compute(nlogn(len(local)))

		// 2. Regular sampling: p samples per processor (with
		// repetition when the block is short).
		samples := make(algebra.Vec, p)
		for i := 0; i < p; i++ {
			if len(local) == 0 {
				samples[i] = 0
			} else {
				samples[i] = local[i*len(local)/p]
			}
		}
		gathered := coll.Gather(c, 0, samples)

		// 3. Root selects the splitters and broadcasts them.
		var splitters algebra.Value
		if rank == 0 {
			all := make([]float64, 0, p*p)
			for _, g := range gathered {
				all = append(all, g.(algebra.Vec)...)
			}
			sort.Float64s(all)
			c.Compute(nlogn(len(all)))
			sp := make(algebra.Vec, p-1)
			for i := 1; i < p; i++ {
				sp[i-1] = all[i*len(all)/p]
			}
			splitters = sp
		} else {
			splitters = algebra.Undef{}
		}
		splitters = coll.Bcast(c, 0, splitters)
		sp := splitters.(algebra.Vec)

		// 4. Partition the sorted block by the splitters.
		parts := make([]algebra.Value, p)
		start := 0
		for b := 0; b < p; b++ {
			end := len(local)
			if b < p-1 {
				end = sort.SearchFloat64s(local, sp[b])
				// SearchFloat64s finds the first ≥ splitter; keep
				// duplicates of the splitter itself in the lower
				// bucket boundary deterministically.
				if end < start {
					end = start
				}
			}
			parts[b] = algebra.Vec(local[start:end])
			start = end
		}
		c.Compute(float64(p)) // splitter binary searches, ~log m each

		// 5. Personalized all-to-all.
		recv := coll.AllToAll(c, parts)

		// 6. Multiway merge (concatenate and sort: the runs are short).
		merged := make([]float64, 0, len(local))
		for _, r := range recv {
			merged = append(merged, r.(algebra.Vec)...)
		}
		sort.Float64s(merged)
		c.Compute(nlogn(len(merged)))
		out[rank] = merged
	})
	return out, res
}

// nlogn is the computation charge for an n·log n local sort.
func nlogn(n int) float64 {
	if n < 2 {
		return float64(n)
	}
	c := 0.0
	for k := n; k > 1; k >>= 1 {
		c++
	}
	return float64(n) * c
}

// IsGloballySorted checks the SampleSort postcondition.
func IsGloballySorted(blocks [][]float64) bool {
	last := 0.0
	first := true
	for _, b := range blocks {
		for _, x := range b {
			if !first && x < last {
				return false
			}
			last = x
			first = false
		}
	}
	return true
}
