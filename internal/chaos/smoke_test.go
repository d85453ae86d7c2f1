package chaos_test

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/chaos"
	"repro/internal/mpbackend"
	"repro/internal/term"
)

// blocks are the conformance harness's deterministic m-word blocks, one
// per rank.
func blocks(p, m int) []algebra.Value { return mpbackend.ConformanceInputs(nil, p, m) }

// TestSmoke pushes one small program through every profile on both
// backends — the cheapest end-to-end check of the whole wire protocol.
func TestSmoke(t *testing.T) {
	prog := term.Seq{term.Bcast{}, term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Mul, All: true}}
	for _, p := range []int{2, 3, 4, 7} {
		for _, prof := range chaos.Profiles() {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("p=%d/%s/seed=%d", p, prof.Name, seed), func(t *testing.T) {
					if err := chaos.Check(chaos.Case{Prog: prog, P: p, M: 4, Profile: prof, Seed: seed}); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}
