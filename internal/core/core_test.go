package core

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/rules"
	"repro/internal/term"
)

func scalars(xs ...float64) []algebra.Value {
	out := make([]algebra.Value, len(xs))
	for i, x := range xs {
		out[i] = algebra.Scalar(x)
	}
	return out
}

func randScalars(rng *rand.Rand, n int) []algebra.Value {
	out := make([]algebra.Value, n)
	for i := range out {
		out[i] = algebra.Scalar(float64(rng.Intn(13) - 6))
	}
	return out
}

func testMachine(p int) Machine { return Machine{Ts: 50, Tw: 1, P: p, M: 1} }

func TestProgramBuilderAndString(t *testing.T) {
	p := NewProgram().Scan(algebra.Mul).Reduce(algebra.Add).Bcast()
	if got, want := p.String(), "scan(*) ; reduce(+) ; bcast"; got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
	if got := NewProgram().String(); got != "id" {
		t.Fatalf("empty program String = %q", got)
	}
}

func TestProgramImmutableBuilder(t *testing.T) {
	base := NewProgram().Bcast()
	a := base.Scan(algebra.Add)
	b := base.Reduce(algebra.Add)
	if a.String() == b.String() {
		t.Fatalf("builder shares state: %q vs %q", a, b)
	}
	if base.String() != "bcast" {
		t.Fatalf("base mutated: %q", base)
	}
}

func TestProgramThenComposes(t *testing.T) {
	a := NewProgram().Bcast()
	b := NewProgram().Scan(algebra.Add)
	c := a.Then(b)
	if got, want := c.String(), "bcast ; scan(+)"; got != want {
		t.Fatalf("Then = %q, want %q", got, want)
	}
}

func TestRunExampleProgram(t *testing.T) {
	// The paper's Example at p = 4 — must match the functional semantics.
	f := &term.Fn{Name: "f", Cost: 1, F: func(v algebra.Value) algebra.Value {
		return algebra.Add.Apply(v, algebra.Scalar(1))
	}}
	g := &term.Fn{Name: "g", Cost: 1, F: func(v algebra.Value) algebra.Value {
		return algebra.Mul.Apply(v, algebra.Scalar(2))
	}}
	prog := NewProgram().Map(f).Scan(algebra.Add).Reduce(algebra.Add).Map(g).Bcast()
	out, res := prog.Run(testMachine(4), scalars(1, 2, 3, 4))
	if !algebra.EqualLists(out, scalars(60, 60, 60, 60)) {
		t.Fatalf("Example output = %v", out)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan = %g", res.Makespan)
	}
}

func TestRunPanicsOnWrongInputLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewProgram().Bcast().Run(testMachine(4), scalars(1, 2))
}

func TestOptimizeIsCostGuided(t *testing.T) {
	prog := NewProgram().Scan(algebra.Mul).Scan(algebra.Add)
	// Start-up dominated machine: SS2 should fire.
	opt := prog.Optimize(Machine{Ts: 100000, Tw: 1, P: 64, M: 10})
	if len(opt.Applications) != 1 || opt.Applications[0].Rule != "SS2-Scan" {
		t.Fatalf("applications = %v", opt.Applications)
	}
	if opt.EstimateAfter >= opt.EstimateBefore {
		t.Fatalf("estimates not improving: %v -> %v", opt.EstimateBefore, opt.EstimateAfter)
	}
	// Bandwidth-dominated machine: SS2 must not fire.
	opt = prog.Optimize(Machine{Ts: 1, Tw: 1, P: 64, M: 100000})
	if len(opt.Applications) != 0 {
		t.Fatalf("unprofitable rule applied: %v", opt.Applications)
	}
}

func TestOptimizationSummary(t *testing.T) {
	prog := NewProgram().Bcast().Scan(algebra.Add)
	opt := prog.Optimize(Machine{Ts: 100, Tw: 1, P: 16, M: 4})
	s := opt.Summary()
	if s == "" || opt.EstimateBefore <= opt.EstimateAfter {
		t.Fatalf("summary = %q, estimates %g -> %g", s, opt.EstimateBefore, opt.EstimateAfter)
	}
}

func TestApplicableReporting(t *testing.T) {
	prog := NewProgram().Bcast().Scan(algebra.Add).Scan(algebra.Add)
	apps := prog.Applicable(Machine{Ts: 100, Tw: 1, P: 16, M: 4})
	if len(apps) < 2 {
		t.Fatalf("applicable = %v", apps)
	}
	for _, a := range apps {
		if a.CostBefore == 0 {
			t.Fatalf("missing cost estimate in %v", a)
		}
	}
}

// TestExhaustiveSummaryQuotesEstimates: OptimizeExhaustively fills both
// estimates at the given machine, so Summary reports a finite ratio
// instead of "0 -> 0 (NaNx)".
func TestExhaustiveSummaryQuotesEstimates(t *testing.T) {
	m := Machine{Ts: 1000, Tw: 1, P: 8, M: 16}
	prog := NewProgram().Scan(algebra.Mul).Reduce(algebra.Add)
	opt := prog.OptimizeExhaustively(algebra.Default(), m)
	if opt.EstimateBefore != prog.Estimate(m) || opt.EstimateAfter != opt.Program.Estimate(m) {
		t.Fatalf("estimates %g -> %g, want %g -> %g",
			opt.EstimateBefore, opt.EstimateAfter, prog.Estimate(m), opt.Program.Estimate(m))
	}
	// SR2-Reduction at p=8: 3·(2·1000 + 16·(2·1+3)) -> 3·(1000 + 16·(2·1+3)).
	want := "applied SR2-Reduction @0: scan(*) ; reduce(+)  =>  map pair ; reduce(op_sr2(*,+)) ; map pi_1\n" +
		"estimate: 6240 -> 3240 (1.93x)\n"
	if got := opt.Summary(); got != want {
		t.Fatalf("Summary() =\n%s\nwant\n%s", got, want)
	}
}

func TestVerifyProgramPair(t *testing.T) {
	lhs := NewProgram().Scan(algebra.Mul).Scan(algebra.Add)
	opt := lhs.OptimizeExhaustively(algebra.Default(), Machine{})
	if err := lhs.Verify(opt.Program, rules.VerifyConfig{Seed: 4, BlockWords: 4}); err != nil {
		t.Fatal(err)
	}
	wrong := NewProgram().Scan(algebra.Add).Scan(algebra.Add)
	if err := lhs.Verify(wrong, rules.VerifyConfig{Seed: 4}); err == nil {
		t.Fatal("Verify accepted inequivalent programs")
	}
}

func TestRunTracedCollectsEvents(t *testing.T) {
	prog := NewProgram().Bcast().Scan(algebra.Add)
	out, res, events := prog.RunTraced(testMachine(4), scalars(5, 0, 0, 0))
	if !algebra.EqualLists(out, scalars(5, 10, 15, 20)) {
		t.Fatalf("output = %v", out)
	}
	if res.Makespan <= 0 || len(events) == 0 {
		t.Fatalf("makespan %g, %d events", res.Makespan, len(events))
	}
}

// TestMeasuredImprovementMatchesPrediction runs a fusable program before
// and after optimization on a start-up-dominated machine and checks the
// measured makespans improve as the estimates promise.
func TestMeasuredImprovementMatchesPrediction(t *testing.T) {
	m := Machine{Ts: 5000, Tw: 1, P: 32, M: 16}
	prog := NewProgram().Scan(algebra.Mul).Reduce(algebra.Add)
	opt := prog.Optimize(m)
	if len(opt.Applications) != 1 {
		t.Fatalf("applications = %v", opt.Applications)
	}
	in := make([]algebra.Value, 32)
	for i := range in {
		v := make(algebra.Vec, 16)
		for j := range v {
			v[j] = float64(i + j)
		}
		in[i] = v
	}
	_, before := prog.Run(m, in)
	_, after := opt.Program.Run(m, in)
	if after.Makespan >= before.Makespan {
		t.Fatalf("no measured improvement: %g -> %g", before.Makespan, after.Makespan)
	}
	// The estimates should be close to the measurements (same model).
	if est := prog.Estimate(Machine{Ts: 5000, Tw: 1, P: 32, M: 16}); !within(est, before.Makespan, 0.05) {
		t.Fatalf("LHS estimate %g vs measured %g", est, before.Makespan)
	}
	if est := opt.Program.Estimate(Machine{Ts: 5000, Tw: 1, P: 32, M: 16}); !within(est, after.Makespan, 0.05) {
		t.Fatalf("RHS estimate %g vs measured %g", est, after.Makespan)
	}
}

func within(a, b, frac float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= frac*b
}
