package cost

import "repro/internal/term"

// Cost lines for the sparse and irregular collectives, in the
// per-neighbor k·ts + Σmᵢ·tw shape of the message-combining literature
// (Träff et al.; see docs/SPARSE.md). Unlike the dense butterfly
// estimates these carry no log p factor: a halo is k point-to-point
// transfers and the irregular collectives are linear-round algorithms.

// HaloDegree is the number of messages each rank sends (and receives)
// in a halo exchange: the distinct nonzero offsets mod p for the
// isomorphic form, the worst rank's distinct non-self sources for the
// per-rank form. Offsets congruent mod p share one message; self-edges
// and duplicates are free.
func HaloDegree(h *term.Hood, p int) int {
	if h.Isomorphic() {
		seen := make(map[int]bool, len(h.Offsets))
		k := 0
		for _, o := range h.Offsets {
			d := o
			if p > 1 {
				d = ((o % p) + p) % p
			} else if p == 1 {
				d = 0
			}
			if d != 0 && !seen[d] {
				seen[d] = true
				k++
			}
		}
		return k
	}
	worst := 0
	for i, l := range h.Lists {
		seen := make(map[int]bool, len(l))
		k := 0
		for _, src := range l {
			if src != i && !seen[src] {
				seen[src] = true
				k++
			}
		}
		if k > worst {
			worst = k
		}
	}
	return worst
}

// HaloLine is the halo exchange on p ranks at block size b:
// k·(ts + b·tw) for k = HaloDegree — one start-up and one b-word
// transfer per distinct neighbor.
func HaloLine(h *term.Hood, p int, b float64) Line {
	return Line{float64(HaloDegree(h, p)), 1, b, 0}
}

// AllGatherVLine is the ring allgatherv for a counts vector with total
// T = Σcounts: p−1 rounds of one start-up each, shipping all but the
// rank's own block through each link — (p−1)·ts + ((p−1)/p)·T·tw: the
// reduce-scatter's traffic with nothing to combine.
func AllGatherVLine(counts []int) Line { return ReduceScatterVLine(0, counts) }

// ReduceScatterVLine is the direct pairwise reduce-scatter: p−1
// start-ups, all but the rank's own slice of T words through each link,
// and p−1 combines of the widest slice at c ops per element —
// (p−1)·ts + ((p−1)/p)·T·tw + (p−1)·c·max(counts).
func ReduceScatterVLine(opCost int, counts []int) Line {
	n := len(counts)
	if n <= 1 {
		return Line{}
	}
	T := float64(term.SumCounts(counts))
	return Line{1, float64(n - 1), float64(n-1) / float64(n) * T,
		float64(n-1) * float64(opCost) * float64(maxCount(counts))}
}

func maxCount(counts []int) int {
	m := 0
	for _, c := range counts {
		if c > m {
			m = c
		}
	}
	return m
}
