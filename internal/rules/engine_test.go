package rules

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/term"
)

// examplish builds the paper's Example program (§2.1): map f ; scan(op1) ;
// reduce(op2) ; map g ; bcast, with op1 = *, op2 = + so that SR2 applies.
func examplish() term.Seq {
	f := &term.Fn{Name: "f", Cost: 1, F: func(v algebra.Value) algebra.Value {
		return algebra.Add.Apply(v, algebra.Scalar(1))
	}}
	g := &term.Fn{Name: "g", Cost: 1, F: func(v algebra.Value) algebra.Value {
		return algebra.Mul.Apply(v, algebra.Scalar(2))
	}}
	return term.Compose(
		term.Map{F: f},
		term.Scan{Op: algebra.Mul},
		term.Reduce{Op: algebra.Add},
		term.Map{F: g},
		term.Bcast{},
	)
}

func TestEngineStepOnExample(t *testing.T) {
	// Figure 3: SR2-Reduction fuses the scan and the reduction of
	// Example.
	e := NewEngine()
	out, app, ok := e.Step(examplish())
	if !ok {
		t.Fatal("no rule applied to Example")
	}
	if app.Rule != "SR2-Reduction" || app.Pos != 1 {
		t.Fatalf("applied %s at %d, want SR2-Reduction at 1", app.Rule, app.Pos)
	}
	want := "map f ; map pair ; reduce(op_sr2(*,+)) ; map pi_1 ; map g ; bcast"
	if got := out.String(); got != want {
		t.Fatalf("rewritten = %q, want %q", got, want)
	}
}

func TestEngineOptimizeTerminates(t *testing.T) {
	e := NewEngine()
	prog := term.Seq{
		term.Bcast{},
		term.Scan{Op: algebra.Add},
		term.Scan{Op: algebra.Add},
		term.Bcast{},
		term.Reduce{Op: algebra.Add},
	}
	out, apps := e.Optimize(prog)
	if len(apps) == 0 {
		t.Fatal("no applications")
	}
	// Nothing more applies.
	if _, _, ok := e.Step(out); ok {
		t.Fatalf("Optimize left an applicable rule in %s", out)
	}
	// Both fusions happened: BSS-Comcast and BR-Local.
	names := map[string]bool{}
	for _, a := range apps {
		names[a.Rule] = true
	}
	if !names["BSS-Comcast"] || !names["BR-Local"] {
		t.Fatalf("applications = %v", apps)
	}
}

func TestEngineOptimizePreservesSemantics(t *testing.T) {
	e := NewEngine()
	prog := examplish()
	opt, apps := e.Optimize(prog)
	if err := new(Verifier).CheckDerivation(term.Stages(prog), term.Stages(opt), apps, VerifyConfig{Seed: 3, BlockWords: 3}); err != nil {
		t.Fatal(err)
	}
	if len(apps) != 1 {
		t.Fatalf("expected 1 application, got %v", apps)
	}
	if opt == nil {
		t.Fatal("nil optimized term")
	}
}

func TestEngineCrossProgramComposition(t *testing.T) {
	// §2.1: composing Example (ending in bcast) with Next_Example
	// (starting with scan) exposes bcast ; scan — fused by BS-Comcast.
	exampleTail := term.Seq{term.Bcast{}}
	nextHead := term.Seq{term.Scan{Op: algebra.Add}}
	combined := term.Compose(exampleTail, nextHead)
	e := NewEngine()
	out, apps := e.Optimize(combined)
	if len(apps) != 1 || apps[0].Rule != "BS-Comcast" {
		t.Fatalf("applications = %v", apps)
	}
	if _, ok := term.Stages(out)[0].(term.Comcast); !ok {
		t.Fatalf("result = %s", out)
	}
}

func TestEngineNoRuleOnLocalOnlyProgram(t *testing.T) {
	e := NewEngine()
	prog := term.Seq{term.Map{F: term.PairFn}, term.Map{F: term.FirstFn}}
	out, apps := e.Optimize(prog)
	if len(apps) != 0 || !term.EqualTerms(out, prog) {
		t.Fatalf("engine rewrote a local-only program: %v %v", out, apps)
	}
}

func TestEngineMapBlocksFusion(t *testing.T) {
	// A local stage between two collectives blocks the window match —
	// the engine performs no data-dependence analysis.
	e := NewEngine()
	prog := term.Seq{
		term.Scan{Op: algebra.Mul},
		term.Map{F: term.PairFn},
		term.Reduce{Op: algebra.Add},
	}
	_, apps := e.Optimize(prog)
	if len(apps) != 0 {
		t.Fatalf("engine fused across a local stage: %v", apps)
	}
}

func TestCostGuidedAppliesAlwaysProfitableRule(t *testing.T) {
	// BS-Comcast improves for any parameters (Table 1: always).
	p := cost.Params{Ts: 1, Tw: 1, M: 100000, P: 64}
	e := NewCostGuidedEngine(p)
	prog := term.Seq{term.Bcast{}, term.Scan{Op: algebra.Add}}
	_, apps := e.Optimize(prog)
	if len(apps) != 1 || apps[0].Rule != "BS-Comcast" {
		t.Fatalf("applications = %v", apps)
	}
	if apps[0].CostAfter >= apps[0].CostBefore {
		t.Fatalf("costs not improving: %v", apps[0])
	}
}

func TestCostGuidedRefusesWhenUnprofitable(t *testing.T) {
	// SS2-Scan pays off only when ts > 2m (§4.2). With a large block and
	// small start-up the cost-guided engine must refuse it.
	prog := term.Seq{term.Scan{Op: algebra.Mul}, term.Scan{Op: algebra.Add}}

	cheapStartup := cost.Params{Ts: 10, Tw: 1, M: 1000, P: 64}
	e := NewCostGuidedEngine(cheapStartup)
	_, apps := e.Optimize(prog)
	if len(apps) != 0 {
		t.Fatalf("engine applied an unprofitable rule: %v", apps)
	}

	expensiveStartup := cost.Params{Ts: 10000, Tw: 1, M: 100, P: 64}
	e = NewCostGuidedEngine(expensiveStartup)
	_, apps = e.Optimize(prog)
	if len(apps) != 1 || apps[0].Rule != "SS2-Scan" {
		t.Fatalf("engine missed a profitable rule: %v", apps)
	}
}

func TestApplicableListsWithoutRewriting(t *testing.T) {
	e := NewEngine()
	prog := term.Seq{term.Bcast{}, term.Scan{Op: algebra.Add}, term.Scan{Op: algebra.Add}}
	apps := e.Applicable(prog)
	// BSS-Comcast at 0, BS-Comcast at 0, SS-Scan at 1.
	names := map[string]int{}
	for _, a := range apps {
		names[a.Rule]++
	}
	if names["BSS-Comcast"] != 1 || names["BS-Comcast"] != 1 || names["SS-Scan"] != 1 {
		t.Fatalf("applicable = %v", apps)
	}
}

func TestVerifyApplicationCatchesBogusRewrite(t *testing.T) {
	bogus := Application{
		Rule:   "SS2-Scan",
		Before: []term.Term{term.Scan{Op: algebra.Add}},
		After:  []term.Term{term.Scan{Op: algebra.Mul}},
	}
	if err := VerifyApplication(bogus, VerifyConfig{Seed: 1}); err == nil {
		t.Fatal("verifier accepted a bogus rewrite")
	}
}

func TestVerifyEquivalenceOnVectors(t *testing.T) {
	lhs := term.Seq{term.Scan{Op: algebra.Mul}, term.Scan{Op: algebra.Add}}
	e := NewEngine()
	rhs, _, ok := e.Step(lhs)
	if !ok {
		t.Fatal("SS2-Scan did not apply")
	}
	if err := VerifyEquivalence(lhs, rhs, VerifyConfig{Seed: 5, BlockWords: 8}); err != nil {
		t.Fatal(err)
	}
}
