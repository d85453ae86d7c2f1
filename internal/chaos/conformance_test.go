// Randomized rule-conformance harness: every optimization rule's LHS and
// RHS, and random programs over the rule grammar, must produce the same
// results on a fault-injected communicator as on a quiet one — bitwise.
// The collectives' correctness must come from the tag discipline and the
// chaos layer's delivery protocol, never from lucky timing.
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
	"repro/internal/mpbackend"
	"repro/internal/rules"
	"repro/internal/term"
)

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// sweepProfiles is the fault regime set of the conformance sweeps; the
// acceptance bar is at least three profiles.
func sweepProfiles() []chaos.Profile {
	return []chaos.Profile{
		chaos.MustByName("delay"),
		chaos.MustByName("reorder"),
		chaos.MustByName("loss"),
		chaos.MustByName("storm"),
	}
}

// sweepSeeds is the per-(program, size, profile) seed count: 20 in the
// full run (the acceptance bar), fewer under -short and -race smokes.
func sweepSeeds() int64 {
	if testing.Short() {
		return 4
	}
	return 20
}

// conform runs prog on p chaos-wrapped native ranks across the full
// profile × seed sweep and demands bitwise equality with the fault-free
// native run; the virtual machine is spot-checked on one seed per
// profile.
func conform(t *testing.T, prog term.Term, p int, in []algebra.Value) {
	t.Helper()
	want := faultFree(prog, p, in)
	for _, prof := range sweepProfiles() {
		for seed := int64(0); seed < sweepSeeds(); seed++ {
			got := chaos.RunNative(prog, p, prof, seed, in)
			for r := 0; r < p; r++ {
				if !algebra.Equal(want[r], got[r]) {
					t.Fatalf("%s/seed=%d rank %d: chaos %v, fault-free %v\n  program: %s",
						prof.Name, seed, r, got[r], want[r], prog)
				}
			}
		}
		gotV := chaos.RunVirtual(prog, p, prof, 0, in)
		for r := 0; r < p; r++ {
			if !algebra.Equal(want[r], gotV[r]) {
				t.Fatalf("%s virtual rank %d: chaos %v, fault-free %v\n  program: %s",
					prof.Name, r, gotV[r], want[r], prog)
			}
		}
	}
}

// rewrite applies exactly the named rule to lhs at machine size p.
func rewrite(t *testing.T, name string, lhs term.Term, p int) term.Term {
	t.Helper()
	r, ok := rules.ByName(name)
	if !ok {
		t.Fatalf("no rule named %s", name)
	}
	eng := rules.NewEngine()
	eng.Rules = []rules.Rule{r}
	eng.Env.P = p
	opt, apps := eng.Optimize(lhs)
	if len(apps) == 0 {
		t.Fatalf("rule %s did not apply to %s at p=%d", name, lhs, p)
	}
	return opt
}

// TestRulesConformUnderChaos sweeps all eleven paper rules: LHS and RHS
// run on the chaos-wrapped native backend across profiles, seeds, and
// power-of-two and non-power-of-two sizes, each compared bitwise against
// its fault-free run, and both checked against the functional semantics.
func TestRulesConformUnderChaos(t *testing.T) {
	for _, pat := range exper.Patterns() {
		r, ok := rules.ByName(pat.Rule)
		if !ok {
			t.Fatalf("no rule named %s", pat.Rule)
		}
		sizes := []int{4, 8}
		if r.Class != "Local" {
			sizes = []int{4, 6} // one power of two, one not
		}
		for _, p := range sizes {
			rhs := rewrite(t, pat.Rule, pat.LHS.Term(), p)
			for _, m := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/p=%d/m=%d", pat.Rule, p, m), func(t *testing.T) {
					in := blocks(p, m)
					conform(t, pat.LHS.Term(), p, in)
					conform(t, rhs, p, in)
					// And the two sides still agree with the semantics —
					// chaos must not have bought conformance by changing
					// what is computed.
					want := term.Eval(pat.LHS.Term(), in)
					got := chaos.RunNative(rhs, p, chaos.MustByName("storm"), 1, in)
					for rank := 0; rank < p; rank++ {
						if !algebra.EqualModuloUndef(got[rank], want[rank]) {
							t.Fatalf("rule %s RHS under storm disagrees with semantics at rank %d: got %v, want %v",
								pat.Rule, rank, got[rank], want[rank])
						}
					}
				})
			}
		}
	}
}

// scatterInput gives rank 0 a p-component list (what a leading scatter
// consumes) and the other ranks don't-care scalars.
func scatterInput(p, m int) []algebra.Value {
	return mpbackend.ConformanceInputs(term.Seq{term.Scatter{}}, p, m)
}

// TestExtensionsConformUnderChaos is the same sweep for the seven
// extension rules, whose LHS programs are built here (they are not part
// of the Table 1 pattern set).
func TestExtensionsConformUnderChaos(t *testing.T) {
	cases := []struct {
		rule  string
		lhs   term.Seq
		local bool // Local-class rules need power-of-two sizes
		gen   func(p, m int) []algebra.Value
	}{
		{rule: "RB-AllReduce", lhs: term.Seq{term.Reduce{Op: algebra.Add}, term.Bcast{}}},
		{rule: "AB-AllReduce", lhs: term.Seq{term.Reduce{Op: algebra.Add, All: true}, term.Bcast{}}},
		{rule: "BB-Bcast", lhs: term.Seq{term.Bcast{}, term.Bcast{}}},
		{rule: "BM-Mobility", lhs: term.Seq{term.Bcast{}, term.Map{F: rules.IncFn}}},
		{rule: "MM-Local", lhs: term.Seq{term.Map{F: rules.IncFn}, term.Map{F: rules.IncFn}}, local: true},
		{rule: "GS-Id", lhs: term.Seq{term.Gather{}, term.Scatter{}}, local: true},
		{rule: "SG-Id", lhs: term.Seq{term.Scatter{}, term.Gather{}}, local: true, gen: scatterInput},
	}
	for _, tc := range cases {
		sizes := []int{4, 6}
		if tc.local {
			sizes = []int{4, 8}
		}
		for _, p := range sizes {
			rhs := rewrite(t, tc.rule, tc.lhs, p)
			for _, m := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/p=%d/m=%d", tc.rule, p, m), func(t *testing.T) {
					gen := tc.gen
					if gen == nil {
						gen = blocks
					}
					in := gen(p, m)
					conform(t, tc.lhs, p, in)
					if len(term.Stages(rhs)) > 0 {
						conform(t, rhs, p, in)
					}
				})
			}
		}
	}
}

// TestRandomProgramsUnderChaos is the randomized harness: programs drawn
// from the rule grammar run on the chaos-wrapped native backend — as
// generated and as optimized by the full rule set — and must match the
// functional semantics and their own fault-free runs. A failure is
// shrunk to a minimal case and reported as a replayable collchaos
// command.
func TestRandomProgramsUnderChaos(t *testing.T) {
	trials := 60
	if testing.Short() {
		trials = 12
	}
	rng := newRng(20260806)
	profiles := sweepProfiles()
	for trial := 0; trial < trials; trial++ {
		prog := rules.RandProgram(rng, 6)
		prof := profiles[trial%len(profiles)]
		c := chaos.Case{Prog: prog, P: 8, M: 1, Profile: prof, Seed: int64(trial)}
		if err := runCase(c); err != nil {
			min := chaos.Shrink(c, func(cand chaos.Case) bool { return runCase(cand) != nil })
			t.Fatalf("trial %d failed: %v\n  minimal reproducer: %s\n  replay: %s",
				trial, runCase(min), min, min.Repro())
		}
		// The optimized program must survive the same faults.
		eng := rules.NewEngine()
		eng.Rules = rules.AllWithExtensions()
		eng.Env.P = c.P
		opt, _ := eng.Optimize(prog)
		if stages := term.Stages(opt); len(stages) > 0 {
			co := c
			co.Prog = term.Compose(opt)
			if err := runCase(co); err != nil {
				min := chaos.Shrink(co, func(cand chaos.Case) bool { return runCase(cand) != nil })
				t.Fatalf("trial %d optimized (%s -> %s) failed: %v\n  minimal reproducer: %s\n  replay: %s",
					trial, prog, opt, runCase(min), min, min.Repro())
			}
		}
	}
}

// runCase executes one chaos case and checks it against the fault-free
// native run (bitwise) and the functional semantics (modulo undetermined
// positions, with a tolerance for reassociated operator chains). A panic
// — deadlock diagnosis, timeout — counts as a failure too, so Shrink can
// minimize hangs as well as wrong answers.
func runCase(c chaos.Case) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	in := blocks(c.P, c.M)
	want := faultFree(c.Prog, c.P, in)
	got := chaos.RunNative(c.Prog, c.P, c.Profile, c.Seed, in)
	sem := term.Eval(c.Prog, in)
	for r := 0; r < c.P; r++ {
		if !algebra.Equal(want[r], got[r]) {
			return fmt.Errorf("rank %d: chaos %v, fault-free %v", r, got[r], want[r])
		}
		if !algebra.EqualApproxModuloUndef(sem[r], got[r], 1e-9) {
			return fmt.Errorf("rank %d: chaos %v, semantics %v", r, got[r], sem[r])
		}
	}
	return nil
}

// TestNoGoroutineLeak verifies the acceptance bar's leak clause: a full
// mix of chaos runs — including watchdog-armed machines — must leave no
// goroutine behind once the runs return.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	prog := term.Seq{term.Bcast{}, term.Scan{Op: algebra.Add}, term.Gather{}, term.Scatter{}, term.Reduce{Op: algebra.Max, All: true}}
	for _, prof := range sweepProfiles() {
		for seed := int64(0); seed < 3; seed++ {
			chaos.RunNative(prog, 6, prof, seed, blocks(6, 2))
			chaos.RunVirtual(prog, 4, prof, seed, blocks(4, 2))
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
