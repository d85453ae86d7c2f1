package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/mpbackend"
	"repro/internal/rules"
	"repro/internal/term"
)

// Machine against semantics: every test here puts its programs through the
// conformance oracle's fault-free legs (chaos.Check) — the virtual machine
// and the native backend on both transports, bit for bit, holding
// term.Eval's value wherever it determines one.

// check puts prog through the oracle at p ranks and m-word blocks.
func check(t *testing.T, prog term.Term, p, m int, tol float64) {
	t.Helper()
	if err := chaos.Check(chaos.Case{Prog: term.Compose(prog), P: p, M: m, Tol: tol}); err != nil {
		t.Fatalf("%s at p=%d m=%d: %v", prog, p, m, err)
	}
}

// sameSemantics: opt computes what prog does on the conformance inputs,
// to a relative tolerance, wherever prog determines a value — the rules'
// own equality, which the machine runs of opt inherit through the oracle.
func sameSemantics(t *testing.T, prog, opt term.Term, p, m int, tol float64) {
	t.Helper()
	in := mpbackend.ConformanceInputs(term.Compose(prog), p, m)
	want, got := term.Eval(prog, in), term.Eval(opt, in)
	for r := range want {
		if !algebra.EqualApproxModuloUndef(want[r], got[r], tol) || algebra.IsUndef(got[r]) && !algebra.IsUndef(want[r]) {
			t.Fatalf("%s -> %s rank %d: semantics %v, was %v", prog, opt, r, got[r], want[r])
		}
	}
}

// TestExecutorAgreesWithSemantics cross-checks the machine executor
// against the functional semantics for every stage type, over a range of
// machine sizes.
func TestExecutorAgreesWithSemantics(t *testing.T) {
	progs := []core.Program{
		core.NewProgram().Scan(algebra.Add),
		core.NewProgram().Reduce(algebra.Add),
		core.NewProgram().AllReduce(algebra.Mul),
		core.NewProgram().Bcast(),
		core.NewProgram().Bcast().Scan(algebra.Add),
		core.NewProgram().Scan(algebra.Mul).Scan(algebra.Add),
		core.NewProgram().Scan(algebra.Add).Reduce(algebra.Add),
		core.NewProgram().Map(term.PairFn).Map(term.FirstFn),
		core.NewProgram().Bcast().Scan(algebra.Mul).Scan(algebra.Add),
		core.NewProgram().Bcast().AllReduce(algebra.Add),
		core.NewProgram().Scan(algebra.Add).Bcast(),
		core.NewProgram().Reduce(algebra.Max).Bcast(),
		core.NewProgram().Scan(algebra.Add).AllReduce(algebra.Max).Scan(algebra.Min),
		core.NewProgram().Scan(algebra.Left).Reduce(algebra.Left), // not commutative
	}
	for _, prog := range progs {
		for _, p := range []int{1, 2, 3, 5, 6, 8, 16} {
			check(t, prog.Term(), p, 1, 0)
		}
	}
}

// TestOptimizedProgramsAgreeOnMachine runs every rule's LHS and its
// rewritten RHS through the oracle at five block sizes — the full-stack
// version of the semantic verification in package rules.
func TestOptimizedProgramsAgreeOnMachine(t *testing.T) {
	mach := core.Machine{Ts: 50, Tw: 1, P: 8, M: 1}
	progs := []core.Program{
		core.NewProgram().Scan(algebra.Mul).Reduce(algebra.Add),         // SR2
		core.NewProgram().Scan(algebra.Mul).AllReduce(algebra.Add),      // SR2 all
		core.NewProgram().Scan(algebra.Add).Reduce(algebra.Add),         // SR
		core.NewProgram().Scan(algebra.Add).AllReduce(algebra.Add),      // SR all
		core.NewProgram().Scan(algebra.Mul).Scan(algebra.Add),           // SS2
		core.NewProgram().Scan(algebra.Add).Scan(algebra.Add),           // SS
		core.NewProgram().Bcast().Scan(algebra.Add),                     // BS
		core.NewProgram().Bcast().Scan(algebra.Mul).Scan(algebra.Add),   // BSS2
		core.NewProgram().Bcast().Scan(algebra.Add).Scan(algebra.Add),   // BSS
		core.NewProgram().Bcast().Reduce(algebra.Add),                   // BR
		core.NewProgram().Bcast().Scan(algebra.Mul).Reduce(algebra.Add), // BSR2
		core.NewProgram().Bcast().Scan(algebra.Add).Reduce(algebra.Add), // BSR
		core.NewProgram().Bcast().AllReduce(algebra.Add),                // CR
	}
	for _, prog := range progs {
		opt := prog.OptimizeExhaustively(algebra.Default(), mach)
		if len(opt.Applications) == 0 {
			t.Fatalf("no rule applied to %s", prog)
		}
		for m := 1; m <= 5; m++ {
			check(t, prog.Term(), mach.P, m, 0)
			check(t, opt.Program.Term(), mach.P, m, 0)
			sameSemantics(t, prog.Term(), opt.Program.Term(), mach.P, m, 0)
		}
	}
}

// TestGatherScatterStagesOnMachine: gather ; scatter is the identity, and
// gather alone leaves the root with the full list.
func TestGatherScatterStagesOnMachine(t *testing.T) {
	gs := term.Seq{term.Gather{}, term.Scatter{}}
	check(t, gs, 5, 1, 0)
	check(t, term.Seq{term.Gather{}}, 5, 1, 0)
	in := mpbackend.ConformanceInputs(nil, 5, 1)
	if out, _ := core.FromTerm(gs).Run(core.Machine{Ts: 50, Tw: 1, P: 5, M: 1}, in); !algebra.EqualLists(out, in) {
		t.Fatalf("gather;scatter = %v, want %v", out, in)
	}
}

// TestFuzzMachineAgreesWithSemantics puts random programs — original and
// optimized, paper rules and extensions — through the oracle. This is the
// full-stack version of the rules fuzzer: it exercises the executor, the
// collectives and the communicator tags under arbitrary stage orders. The
// programs' operator chains leave the exactly representable range, hence
// the tolerance.
func TestFuzzMachineAgreesWithSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	mach := core.Machine{Ts: 20, Tw: 1, P: 8, M: 1}
	for trial := 0; trial < 120; trial++ {
		prog := rules.RandProgram(rng, 6)
		check(t, prog, mach.P, mach.M, 1e-9)
		opt := core.FromTerm(prog).OptimizeExhaustively(algebra.Default(), mach).Program.Term()
		check(t, opt, mach.P, mach.M, 1e-9)
		sameSemantics(t, prog, opt, mach.P, mach.M, 1e-9)

		ext := rules.NewEngine()
		ext.Rules = rules.AllWithExtensions()
		ext.Env.P = mach.P
		extTerm, _ := ext.Optimize(prog)
		check(t, extTerm, mach.P, mach.M, 1e-9)
	}
}
