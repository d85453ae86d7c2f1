package cost

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/term"
)

func TestHaloDegreeDedup(t *testing.T) {
	cases := []struct {
		offs []int
		p    int
		want int
	}{
		{[]int{-1, 1}, 4, 2},
		{[]int{-2, 2}, 4, 1}, // ±2 collide mod 4
		{[]int{0, 0}, 4, 0},  // self-edges free
		{[]int{3, -3}, 3, 0}, // congruent to 0 mod 3
		{[]int{1, 4}, 3, 1},  // 4 ≡ 1 mod 3
		{[]int{-1, 1}, 1, 0}, // single rank: everything local
		{[]int{1, 2, 3}, 8, 3},
	}
	for _, tc := range cases {
		h := &term.Hood{Offsets: tc.offs}
		if got := HaloDegree(h, tc.p); got != tc.want {
			t.Errorf("HaloDegree(%v, p=%d) = %d, want %d", tc.offs, tc.p, got, tc.want)
		}
	}
	lists := &term.Hood{Lists: [][]int{{1, 2, 1}, {1}, {0}}}
	if got := HaloDegree(lists, 3); got != 2 {
		t.Errorf("HaloDegree(lists) = %d, want 2 (worst rank, dedup, self free)", got)
	}
}

func TestSparseCostLines(t *testing.T) {
	p := Params{Ts: 4, Tw: 1, P: 4}
	h := &term.Hood{Offsets: []int{-1, 1}}
	if got := HaloLine(h, p.P, 3).At(p); got != 2*(4+3) {
		t.Errorf("HaloLine = %v, want 14", got)
	}
	counts := []int{1, 2, 3}
	// (p−1)·ts + ((p−1)/p)·T·tw with p = 3, T = 6.
	if got := AllGatherVLine(counts).At(p); got != 2*4+2.0/3.0*6 {
		t.Errorf("AllGatherVLine = %v, want 12", got)
	}
	if got := AllGatherVLine([]int{5}).At(p); got != 0 {
		t.Errorf("single-rank AllGatherVLine = %v, want 0", got)
	}
	// + (p−1)·c·max(counts) combine time.
	if got := ReduceScatterVLine(1, counts).At(p); got != 12+2*3 {
		t.Errorf("ReduceScatterVLine = %v, want 18", got)
	}
}

// TestSparseStageCostsThreadBlockSize pins the block-size reshaping: a
// halo multiplies the running block by its width, the V-collectives set
// it to the total and the per-rank maximum.
func TestSparseStageCostsThreadBlockSize(t *testing.T) {
	p := Params{Ts: 4, Tw: 1, P: 4, M: 2}
	halo := term.Halo{H: &term.Hood{Offsets: []int{-1, 1}}}
	// halo at b=2 costs 2·(4+2), then map inc runs on the widened 4-word
	// block: OfTerm must charge the map at 4 words, not 2.
	prog := term.Seq{halo, term.Map{F: &term.Fn{Name: "inc", Cost: 1}}}
	withMap := OfTerm(prog, p)
	alone := OfTerm(term.Seq{halo}, p)
	if withMap-alone != 4 {
		t.Errorf("map after halo charged %v, want 4 (widened block)", withMap-alone)
	}
	// Floor is admissible: never above the true estimate.
	for _, prog := range []term.Seq{
		{halo, term.Reduce{Op: algebra.Add}},
		{term.AllGatherV{Counts: []int{1, 0, 3, 1}}, term.Reduce{Op: algebra.Add}},
		{term.ReduceScatterV{Op: algebra.Add, Counts: []int{1, 0, 3, 1}}, term.AllGatherV{Counts: []int{1, 0, 3, 1}}},
	} {
		if f, c := Floor(prog, p), OfTerm(prog, p); f > c {
			t.Errorf("Floor(%s) = %v exceeds OfTerm = %v", prog, f, c)
		}
	}
}

// TestHHCombineIsACostTradeoff pins that message combining is not
// uniformly profitable: offsets that collide mod p shrink the combined
// degree below k1+k2, while spread-out offsets blow the sumset up past
// it — the reason the rule is cost-gated rather than unconditional.
func TestHHCombineIsACostTradeoff(t *testing.T) {
	p := Params{Ts: 100, Tw: 1, P: 64, M: 1}
	pair := func(o1, o2 []int) (float64, float64) {
		lhs := term.Seq{
			term.Halo{H: &term.Hood{Offsets: o1}},
			term.Halo{H: &term.Hood{Offsets: o2}},
		}
		combined := make([]int, 0, len(o1)*len(o2))
		for _, q := range o2 {
			for _, o := range o1 {
				combined = append(combined, q+o)
			}
		}
		rhs := term.Seq{term.Halo{H: &term.Hood{Offsets: combined}}}
		return OfTerm(lhs, p), OfTerm(rhs, p)
	}
	if l, r := pair([]int{-1, 1}, []int{-1, 1}); r >= l {
		t.Errorf("ring halo squared: combined %v not cheaper than pair %v", r, l)
	}
	if l, r := pair([]int{1, 2, 4}, []int{8, 16, 32}); r <= l {
		t.Errorf("spread offsets: combined %v not dearer than pair %v (sumset blowup)", r, l)
	}
}
