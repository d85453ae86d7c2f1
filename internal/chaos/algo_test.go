package chaos_test

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/chaos"
	"repro/internal/coll"
	"repro/internal/coll/sel"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/term"
)

// Chaos conformance for the collective-algorithm portfolio (coll/algo.go,
// docs/ALGORITHMS.md): every alternative implementation must survive the
// same fault regimes the butterfly does — delayed, reordered, duplicated
// and dropped envelopes — and still produce, bit for bit, the fault-free
// result. The chunked and pipelined algorithms are the interesting prey
// here: they ship many more envelopes per stage than the butterfly, and
// their correctness leans on the tag discipline, never on timing.

// portfolioCases enumerates the portfolio with a runner and the smallest
// block each algorithm accepts at group size p.
type portfolioCase struct {
	name string
	minM func(p int) int
	run  func(c coll.Comm, v algebra.Value) algebra.Value
}

func portfolioCases() []portfolioCase {
	return []portfolioCase{
		{
			name: "rabenseifner",
			minM: func(p int) int { return p },
			run:  func(c coll.Comm, v algebra.Value) algebra.Value { return coll.AllReduceRabenseifner(c, algebra.Add, v) },
		},
		{
			name: "ring-bi",
			minM: func(p int) int { return 2 * p },
			run:  func(c coll.Comm, v algebra.Value) algebra.Value { return coll.AllReduceRingBi(c, algebra.Add, v) },
		},
		{
			name: "pipeline",
			minM: func(int) int { return 1 },
			run:  func(c coll.Comm, v algebra.Value) algebra.Value { return coll.ReducePipelined(c, algebra.Add, v, 3) },
		},
	}
}

// TestPortfolioConformsUnderChaos sweeps every portfolio algorithm on a
// power-of-two and a non-power-of-two group (the rabenseifner fold path)
// across the full profile × seed sweep, on both backends, demanding
// bitwise equality with the fault-free run.
func TestPortfolioConformsUnderChaos(t *testing.T) {
	for _, tc := range portfolioCases() {
		for _, p := range []int{4, 7} {
			m := tc.minM(p) + 3 // uneven chunks: m does not divide by p
			in := blocks(p, m)
			t.Run(fmt.Sprintf("%s/p=%d/m=%d", tc.name, p, m), func(t *testing.T) {
				everywhere(t, p, chaos.Profiles(), sweepSeeds(), func(c coll.Comm) algebra.Value {
					return tc.run(c, in[c.Rank()])
				})
			})
		}
	}
}

// TestSelectedProgramConformsUnderChaos runs a whole auto-selected
// program — the execution path serving actually takes — under chaos:
// RunStages with non-butterfly selections must match the plain butterfly
// executor's fault-free result bitwise, on every run.
func TestSelectedProgramConformsUnderChaos(t *testing.T) {
	prog := term.Seq{
		term.Reduce{Op: algebra.Add, All: true},
		term.Scan{Op: algebra.Add},
		term.Reduce{Op: algebra.Add},
	}
	for _, p := range []int{4, 7} {
		m := 4 * p
		in := blocks(p, m)
		params := cost.Params{Ts: 1, Tw: 1, P: p, M: m} // cheap start-ups: every alternative wins
		sels := sel.ForTerm(prog, params)
		nonBF := 0
		for _, s := range sels {
			if s.Algo != cost.AlgoButterfly {
				nonBF++
			}
		}
		if nonBF == 0 {
			t.Fatalf("p=%d m=%d: expected non-butterfly selections, got %v", p, m, sels)
		}
		got := everywhere(t, p, chaos.Profiles(), max(sweepSeeds()/2, 2), func(c coll.Comm) algebra.Value {
			return core.RunStages(c, prog, in[c.Rank()], sels...)
		})
		if want, _ := core.FromTerm(prog).RunNative(p, in); !algebra.EqualLists(got, want) {
			t.Fatalf("p=%d: selected %v, fault-free butterfly %v\n  selections: %v", p, got, want, sels)
		}
	}
}
