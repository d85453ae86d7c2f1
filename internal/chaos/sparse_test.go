package chaos_test

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/chaos"
	"repro/internal/coll"
	"repro/internal/term"
)

// TestSparseCollectivesUnderChaos sweeps the sparse program shapes
// through the oracle, every fault profile on both backends — including
// zero-length and maximally-skewed counts vectors.
func TestSparseCollectivesUnderChaos(t *testing.T) {
	type sp struct {
		name string
		p    int
		prog term.Seq
	}
	counts := []int{2, 0, 3, 1}
	skew := []int{0, 5, 0}
	cases := []sp{
		{"halo-ring", 5, term.Seq{term.Halo{H: &term.Hood{Offsets: []int{-1, 1}}}}},
		{"halo-chain", 4, term.Seq{
			term.Halo{H: &term.Hood{Offsets: []int{1, 2}}},
			term.Halo{H: &term.Hood{Offsets: []int{0, 3}}},
		}},
		{"halo-lists", 3, term.Seq{term.Halo{H: &term.Hood{Lists: [][]int{{1}, {0, 2}, {0}}}}}},
		{"agv", 4, term.Seq{term.AllGatherV{Counts: counts}}},
		{"agv-skew", 3, term.Seq{term.AllGatherV{Counts: skew}}},
		{"rsv", 4, term.Seq{term.ReduceScatterV{Op: algebra.Add, Counts: counts}}},
		{"rsv-agv", 3, term.Seq{
			term.ReduceScatterV{Op: algebra.Max, Counts: skew},
			term.AllGatherV{Counts: skew},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conform(t, tc.prog, tc.p, 2)
		})
	}
}

// TestSparseRawSPMDUnderChaos drives the coll-level sparse collectives
// directly on chaos-wrapped ranks (no program layer), mirroring how the
// apps call them.
func TestSparseRawSPMDUnderChaos(t *testing.T) {
	p := 4
	counts := []int{1, 0, 2, 1}
	total := term.SumCounts(counts)
	in := make([]algebra.Vec, p)
	rng := newRng(409)
	for i := range in {
		in[i] = make(algebra.Vec, total)
		for j := range in[i] {
			in[i][j] = float64(rng.Intn(19) - 9)
		}
	}
	progTerm := term.Seq{
		term.ReduceScatterV{Op: algebra.Add, Counts: counts},
		term.AllGatherV{Counts: counts},
	}
	evalIn := make([]algebra.Value, p)
	for i := range evalIn {
		evalIn[i] = in[i]
	}
	want := term.Eval(progTerm, evalIn)

	for _, prof := range chaos.Profiles() {
		for seed := int64(0); seed < 3; seed++ {
			out := make([]algebra.Value, p)
			chaos.OnNative(p, prof, seed, func(c coll.Comm) {
				mid := coll.ReduceScatterV(c, algebra.Add, counts, append(algebra.Vec(nil), in[c.Rank()]...))
				out[c.Rank()] = coll.AllGatherV(c, counts, mid)
			})
			for r := 0; r < p; r++ {
				if !algebra.Equal(out[r], want[r]) {
					t.Fatalf("%s/seed=%d rank %d: got %v, want %v", prof.Name, seed, r, out[r], want[r])
				}
			}
		}
	}
}

// TestShrinkRespectsCountsPin checks the new structural guards: the
// machine walk-down skips sizes a counts vector pins, and stage removal
// never leaves two stages pinning different sizes.
func TestShrinkRespectsCountsPin(t *testing.T) {
	counts := []int{1, 0, 2, 1}
	fails := func(c chaos.Case) bool {
		for _, s := range c.Prog {
			if _, ok := s.(term.ReduceScatterV); ok {
				return true
			}
		}
		return false
	}
	start := chaos.Case{
		Prog: term.Seq{
			term.Halo{H: &term.Hood{Offsets: []int{-1, 1}}},
			term.ReduceScatterV{Op: algebra.Add, Counts: counts},
			term.AllGatherV{Counts: counts},
		},
		P: 4, M: 3,
		Profile: chaos.MustByName("loss"),
		Seed:    7,
	}
	min := chaos.Shrink(start, fails)
	if !fails(min) {
		t.Fatalf("shrunk case no longer fails: %s", min)
	}
	if len(min.Prog) != 1 {
		t.Fatalf("expected a single-stage reproducer, got %s", min.Prog)
	}
	if min.P != 4 {
		t.Fatalf("machine walked below the pinned size: p=%d, counts pin 4", min.P)
	}
	if min.M != 1 {
		t.Fatalf("expected m=1, got m=%d", min.M)
	}
	want := fmt.Sprintf("go run ./cmd/collchaos -prog %q -p 4 -m 1 -profile loss -seed 7",
		"reduce_scatterv(+,1,0,2,1)")
	if min.Repro() != want {
		t.Fatalf("repro line %q, want %q", min.Repro(), want)
	}
}
