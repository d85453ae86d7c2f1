package core

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/rules"
	"repro/internal/term"
)

// randProgram is the shared generator of the rules package (gen.go):
// random stage soups over operators with known properties.
func randProgram(rng *rand.Rand, maxStages int) term.Seq {
	return rules.RandProgram(rng, maxStages)
}

// TestFuzzMachineAgreesWithSemantics runs random programs — original and
// optimized, paper rules and extensions — on the virtual machine and
// compares every outcome against the functional semantics. This is the
// full-stack version of the rules fuzzer: it exercises the executor, the
// collectives and the communicator tags under arbitrary stage orders.
func TestFuzzMachineAgreesWithSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	mach := Machine{Ts: 20, Tw: 1, P: 8, M: 1}
	for trial := 0; trial < 120; trial++ {
		prog := FromTerm(randProgram(rng, 6))
		in := randScalars(rng, mach.P)

		if err := prog.CrossCheckTol(mach, in, 1e-9); err != nil {
			t.Fatalf("trial %d original: %v\n  program: %s", trial, err, prog)
		}

		opt := prog.OptimizeExhaustively(algebra.Default(), mach)
		if err := opt.Program.CrossCheckTol(mach, in, 1e-9); err != nil {
			t.Fatalf("trial %d optimized: %v\n  program: %s", trial, err, opt.Program)
		}
		// Original and optimized agree on the machine, modulo
		// undetermined positions.
		a, _ := prog.Run(mach, in)
		b, _ := opt.Program.Run(mach, in)
		want := term.Eval(prog.Term(), in)
		for i := range want {
			if !algebra.EqualApproxModuloUndef(want[i], a[i], 1e-9) {
				t.Fatalf("trial %d: machine original diverges at %d: %v vs %v\n  %s",
					trial, i, a[i], want[i], prog)
			}
			if !algebra.EqualApproxModuloUndef(want[i], b[i], 1e-9) {
				t.Fatalf("trial %d: machine optimized diverges at %d: %v vs %v\n  %s -> %s",
					trial, i, b[i], want[i], prog, opt.Program)
			}
		}

		ext := rules.NewEngine()
		ext.Rules = rules.AllWithExtensions()
		ext.Env.P = mach.P
		extTerm, _ := ext.Optimize(prog.Term())
		if err := FromTerm(extTerm).CrossCheckTol(mach, in, 1e-9); err != nil {
			t.Fatalf("trial %d extensions: %v\n  program: %s -> %s", trial, err, prog, extTerm)
		}
	}
}
