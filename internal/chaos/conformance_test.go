// Randomized rule-conformance sweeps: every optimization rule's LHS and
// RHS, and random programs over the rule grammar, go through the oracle
// (check.go), so they must produce the same results on a fault-injected
// communicator as on a quiet one — bitwise. The collectives' correctness
// must come from the tag discipline and the chaos layer's delivery
// protocol, never from lucky timing.
package chaos_test

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/chaos"
	"repro/internal/exper"
	"repro/internal/rules"
	"repro/internal/term"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// sweepSeeds is the per-(program, size, profile) seed count: 20 in the
// full run (the acceptance bar), fewer under -short and -race smokes.
func sweepSeeds() int {
	if testing.Short() {
		return 4
	}
	return 20
}

// conform sweeps prog at p ranks and m words through the oracle, every
// profile × seed.
func conform(t *testing.T, prog term.Term, p, m int) {
	t.Helper()
	if err := chaos.Sweep(chaos.Case{Prog: term.Compose(prog), P: p, M: m}, chaos.Profiles(), sweepSeeds()); err != nil {
		t.Fatal(err)
	}
}

// TestRulesConformUnderChaos sweeps all eleven paper rules: LHS and RHS
// through the oracle across profiles, seeds, and power-of-two and
// non-power-of-two sizes.
func TestRulesConformUnderChaos(t *testing.T) { sweepRules(t, exper.Patterns()) }

// TestExtensionsConformUnderChaos is the same sweep for the extension
// and sparse rules.
func TestExtensionsConformUnderChaos(t *testing.T) { sweepRules(t, exper.Extensions()) }

func sweepRules(t *testing.T, pats []exper.RulePattern) {
	for _, pat := range pats {
		lhs := term.Compose(pat.LHS.Term())
		for _, p := range pat.Sizes() {
			for _, m := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/p=%d/m=%d", pat.Rule, p, m), func(t *testing.T) {
					sweepRule(t, pat.Rule, lhs, p, m)
				})
			}
		}
	}
}

// sweepRule sweeps a rule's left-hand side and the right-hand side it
// rewrites to at p, unless that is the identity.
func sweepRule(t *testing.T, rule string, lhs term.Seq, p, m int) {
	t.Helper()
	rhs, err := exper.ApplyRule(rule, lhs, p)
	if err != nil {
		t.Fatal(err)
	}
	conform(t, lhs, p, m)
	if len(term.Stages(rhs)) > 0 {
		conform(t, rhs, p, m)
	}
}

// TestTupleResultsCrossStages runs programs in which a derived operator's
// tuple-valued result crosses a stage boundary — into another operator
// collective, into a stage that nests it in a list, and out of the
// program — through the oracle, whose legs must return it boxed at every
// depth, and in which π₁ of such a result is consumed by a local function
// and by a base-operator collective. No program generator draws derived
// operators, so the sweeps above never put such a result inside a halo or
// gather list.
func TestTupleResultsCrossStages(t *testing.T) {
	sr2, ss := algebra.OpSR2(algebra.Mul, algebra.Add), algebra.OpSS(algebra.Add)
	pair, pi := term.Map{F: term.PairFn}, term.Map{F: term.FirstFn}
	ring := term.Halo{H: &term.Hood{Offsets: []int{-1, 1}}}
	for _, prog := range []term.Seq{
		{pair, term.Scan{Op: sr2}, term.Scan{Op: sr2}, pi},
		{pair, term.Reduce{Op: sr2}, term.Bcast{}, pi},
		{pair, term.Scan{Op: sr2}, ring},
		{pair, term.Scan{Op: sr2}, term.Gather{}},
		{pair, term.Reduce{Op: sr2, All: true}},
		{pair, term.Scan{Op: sr2}, pi, term.Map{F: rules.IncFn}, term.Scan{Op: algebra.Add}},
		{pair, term.Reduce{Op: sr2}, term.Bcast{}, pi, term.Reduce{Op: algebra.Add, All: true}},
		// Broadcast, a flat result is one tuple every rank shares, which
		// the next operator collective must not rewrite.
		{pair, term.Reduce{Op: sr2}, term.Bcast{}, term.Scan{Op: sr2}, pi},
		{term.Map{F: term.QuadrupleFn}, term.ScanBal{Op: ss}, term.Bcast{}, term.ScanBal{Op: ss}, pi},
	} {
		for p := 1; p <= 9; p++ {
			for _, m := range []int{1, 16, 257} { // 257 words straddle a kernel's 256-word block
				// Products of up to 45 blocks leave the exact range.
				if err := chaos.Check(chaos.Case{Prog: prog, P: p, M: m, Tol: 1e-9}); err != nil {
					t.Errorf("%s p=%d m=%d: %v", prog, p, m, err)
				}
			}
		}
	}
}

// TestRandomProgramsUnderChaos is the randomized harness: programs drawn
// from the rule grammar go through the oracle — as generated and as
// optimized by the full rule set — one profile and seed each. A failure
// is shrunk to a minimal case and reported as a replayable collchaos
// command.
func TestRandomProgramsUnderChaos(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 12
	}
	rng := newRng(20260806)
	profiles := chaos.Profiles()
	for trial := 0; trial < trials; trial++ {
		prog := rules.RandProgram(rng, 6)
		prof := []chaos.Profile{profiles[trial%len(profiles)]}
		c := chaos.Case{Prog: prog, P: 8, M: 1, Seed: int64(trial), Tol: 1e-9}
		if err := chaos.Sweep(c, prof, 1); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The optimized program must survive the same faults.
		eng := rules.NewEngine()
		eng.Rules = rules.AllWithExtensions()
		eng.Env.P = c.P
		opt, _ := eng.Optimize(prog)
		if stages := term.Stages(opt); len(stages) > 0 {
			c.Prog = term.Compose(opt)
			if err := chaos.Sweep(c, prof, 1); err != nil {
				t.Fatalf("trial %d optimized (%s -> %s): %v", trial, prog, opt, err)
			}
		}
	}
}

// TestNoGoroutineLeak verifies the acceptance bar's leak clause: a full
// mix of chaos runs — including watchdog-armed machines — must leave no
// goroutine behind once the runs return.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	prog := term.Seq{term.Bcast{}, term.Scan{Op: algebra.Add}, term.Gather{}, term.Scatter{}, term.Reduce{Op: algebra.Max, All: true}}
	for _, prof := range chaos.Profiles() {
		for seed := int64(0); seed < 3; seed++ {
			for _, p := range []int{4, 6} {
				if err := chaos.Check(chaos.Case{Prog: prog, P: p, M: 2, Profile: prof, Seed: seed}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}
