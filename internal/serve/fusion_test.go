package serve

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/rules"
	"repro/internal/term"
)

// Clients may fuse their requests themselves: concatenate their blocks,
// ask for one plan at m = Σ mᵢ, run it once and slice the result at the
// prefix sums of the mᵢ. The tests below hold the daemon to what makes
// that sound.

func parseProg(t *testing.T, src string) term.Seq {
	t.Helper()
	syms := lang.NewSymbols()
	syms.DefineFn(rules.IncFn)
	parsed, err := lang.Parse(src, syms)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return term.Compose(parsed)
}

// fusible reports whether a program may run once over concatenated
// blocks. That is sound exactly when every stage acts elementwise on
// vector blocks: the standard collectives (bcast, scan, reduce,
// allreduce) apply their operator component-wise and move whole blocks,
// so collective(concat xs) = concat(collective xs) with the same
// combining order — bitwise, not just approximately. Local map stages,
// gather/scatter and the auxiliary tuple constructions reshape values
// and are excluded.
func fusible(t term.Seq) bool {
	if len(term.Stages(t)) == 0 {
		return false
	}
	for _, st := range term.Stages(t) {
		switch st.(type) {
		case term.Bcast, term.Scan, term.Reduce:
		default:
			return false
		}
	}
	return true
}

func TestFusible(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"scan(+)", true},
		{"allreduce(max)", true},
		{"bcast ; scan(+) ; reduce(+)", true},
		{"map inc ; scan(+)", false},   // local stage reshapes nothing but is conservatively excluded
		{"gather ; scatter", false},    // reshapes values across ranks
		{"map pair ; map pi_1", false}, // tuple construction
	}
	for _, c := range cases {
		if got := fusible(parseProg(t, c.src)); got != c.want {
			t.Errorf("fusible(%q) = %v, want %v", c.src, got, c.want)
		}
	}
	if fusible(nil) {
		t.Error("empty program must not be fusible")
	}
}

// concatBlocks builds the fused input: rank r's fused block is the
// concatenation, in member order, of every member's rank-r block.
func concatBlocks(members [][]algebra.Value) []algebra.Value {
	p := len(members[0])
	fused := make([]algebra.Value, p)
	for r := 0; r < p; r++ {
		var block algebra.Vec
		for _, blocks := range members {
			block = append(block, blocks[r].(algebra.Vec)...)
		}
		fused[r] = block
	}
	return fused
}

// splitBlocks undoes concatBlocks on a fused output: each rank's fused
// vector is sliced at the prefix sums of ms into per-member blocks
// (fresh copies, not aliases).
func splitBlocks(fused []algebra.Value, ms []int) [][]algebra.Value {
	out := make([][]algebra.Value, len(ms))
	for i := range ms {
		out[i] = make([]algebra.Value, len(fused))
	}
	for r, v := range fused {
		off := 0
		for i, m := range ms {
			out[i][r] = append(algebra.Vec(nil), v.(algebra.Vec)[off:off+m]...)
			off += m
		}
	}
	return out
}

// intBlocks builds one m-word small-integer block per rank (exact under
// every operator chain, so bitwise comparisons are meaningful even
// across reassociating rewrites).
func intBlocks(p, m, salt int) []algebra.Value {
	out := make([]algebra.Value, p)
	for r := range out {
		b := make(algebra.Vec, m)
		for j := range b {
			b[j] = float64((r*5+j*3+salt)%7 + 1)
		}
		out[r] = b
	}
	return out
}

// TestFusedPlanExecutesBitwiseEqual is the end-to-end fusion soundness
// check: the plan for m = Σ mᵢ, executed once on the native backend over
// the concatenated blocks and sliced at the prefix-sum offsets, must be
// bitwise equal to executing the same plan per member — and equal
// (exactly, on integer inputs) to the per-member run of the *original*
// unoptimized program. The plan itself must pass rules.VerifyEquivalence
// against the original.
func TestFusedPlanExecutesBitwiseEqual(t *testing.T) {
	for _, p := range []int{4, 6, 8} {
		for _, src := range []string{"scan(+) ; reduce(+)", "bcast ; scan(+)", "allreduce(max) ; reduce(+)"} {
			t.Run(fmt.Sprintf("p%d/%s", p, src), func(t *testing.T) {
				orig := parseProg(t, src)
				if !fusible(orig) {
					t.Fatalf("%s is not fusible", src)
				}
				ms := []int{2, 3, 1}
				// Small blocks and a start-up-dominated machine, so the
				// fused plan actually rewrites.
				mach := core.Machine{Ts: 5000, Tw: 1, P: p, M: 2 + 3 + 1}
				plan, _, err := NewPlanner(64, 4).PlanTermOpts(orig, mach, StrategyGreedy, false)
				if err != nil {
					t.Fatal(err)
				}

				// The fused plan is semantically equivalent to the
				// original program.
				if err := rules.VerifyEquivalence(orig, plan.Term, rules.VerifyConfig{Seed: 9, BlockWords: 3}); err != nil {
					t.Fatalf("fused plan fails VerifyEquivalence: %v", err)
				}
				if !plan.Verified {
					t.Fatal("plan not marked verified")
				}

				blocks := make([][]algebra.Value, len(ms))
				for i, m := range ms {
					blocks[i] = intBlocks(p, m, i)
				}
				fusedOut, _ := core.FromTerm(plan.Term).RunNative(p, concatBlocks(blocks))
				members := splitBlocks(fusedOut, ms)

				for i, member := range members {
					// Bitwise equal to the unfused run of the same plan...
					unfused, _ := core.FromTerm(plan.Term).RunNative(p, blocks[i])
					for r := 0; r < p; r++ {
						if !algebra.Equal(member[r], unfused[r]) {
							t.Fatalf("member %d rank %d: fused %v, unfused %v", i, r, member[r], unfused[r])
						}
					}
					// ...and in agreement with the original program's
					// functional semantics modulo undetermined positions
					// (the rules only promise the determined parts — a
					// rewrite may leave non-root ranks with different
					// scratch values).
					sem := term.Eval(orig, blocks[i])
					planSem := term.Eval(plan.Term, blocks[i])
					for r := 0; r < p; r++ {
						if !algebra.EqualModuloUndef(planSem[r], member[r]) {
							t.Fatalf("member %d rank %d: fused %v disagrees with plan semantics %v", i, r, member[r], planSem[r])
						}
						if !algebra.EqualModuloUndef(sem[r], planSem[r]) {
							t.Fatalf("rank %d: plan semantics %v disagree with original semantics %v", r, planSem[r], sem[r])
						}
					}
				}
			})
		}
	}
}

// TestConcatSplitRoundTrip: splitBlocks undoes concatBlocks and copies
// (no aliasing into the fused buffer).
func TestConcatSplitRoundTrip(t *testing.T) {
	blocks := [][]algebra.Value{intBlocks(4, 2, 0), intBlocks(4, 3, 1)}
	fused := concatBlocks(blocks)
	back := splitBlocks(fused, []int{2, 3})
	for i := range blocks {
		for r := range blocks[i] {
			if !algebra.Equal(blocks[i][r], back[i][r]) {
				t.Fatalf("member %d rank %d: %v != %v", i, r, back[i][r], blocks[i][r])
			}
		}
	}
	// Mutating the split output must not touch the fused buffer.
	back[0][0].(algebra.Vec)[0] = -99
	if fused[0].(algebra.Vec)[0] == -99 {
		t.Fatal("splitBlocks aliased the fused buffer")
	}
}
