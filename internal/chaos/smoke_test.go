package chaos_test

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/mpbackend"
	"repro/internal/term"
)

// blocks are the conformance harness's deterministic m-word blocks, one
// per rank.
func blocks(p, m int) []algebra.Value { return mpbackend.ConformanceInputs(nil, p, m) }

// faultFree is the chaos sweeps' baseline: the same program on the bare
// native backend.
func faultFree(t term.Term, p int, in []algebra.Value) []algebra.Value {
	out, _ := core.FromTerm(t).RunNative(p, in)
	return out
}

// TestSmoke pushes one small program through every profile on both
// backends and demands bitwise equality with the fault-free run — the
// cheapest end-to-end check of the whole wire protocol.
func TestSmoke(t *testing.T) {
	prog := term.Seq{term.Bcast{}, term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Mul, All: true}}
	for _, p := range []int{2, 3, 4, 7} {
		in := blocks(p, 4)
		want := faultFree(prog, p, in)
		for _, prof := range chaos.Profiles() {
			for seed := int64(0); seed < 3; seed++ {
				t.Run(fmt.Sprintf("p=%d/%s/seed=%d", p, prof.Name, seed), func(t *testing.T) {
					gotN := chaos.RunNative(prog, p, prof, seed, in)
					gotV := chaos.RunVirtual(prog, p, prof, seed, in)
					for r := 0; r < p; r++ {
						if !algebra.Equal(want[r], gotN[r]) {
							t.Fatalf("native rank %d: got %v, want %v", r, gotN[r], want[r])
						}
						if !algebra.Equal(want[r], gotV[r]) {
							t.Fatalf("virtual rank %d: got %v, want %v", r, gotV[r], want[r])
						}
					}
				})
			}
		}
	}
}
