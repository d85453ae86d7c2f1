package rules

import (
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/term"
)

// applyRule matches the rule against the given stages (which must span
// exactly the rule's window) and fails the test if it does not fire.
func applyRule(t *testing.T, r Rule, env Env, stages ...term.Term) []term.Term {
	t.Helper()
	if len(stages) != r.Window {
		t.Fatalf("%s window is %d, got %d stages", r.Name, r.Window, len(stages))
	}
	repl, ok := r.Try(stages, env)
	if !ok {
		t.Fatalf("%s did not match %s", r.Name, term.Seq(stages))
	}
	return repl
}

// refuseRule fails the test if the rule fires.
func refuseRule(t *testing.T, r Rule, env Env, stages ...term.Term) {
	t.Helper()
	if _, ok := r.Try(stages, env); ok {
		t.Fatalf("%s must not match %s", r.Name, term.Seq(stages))
	}
}

// verifyRule applies the rule and checks the semantic equality of both
// sides on random inputs (scalar and 4-word blocks).
func verifyRule(t *testing.T, r Rule, env Env, stages ...term.Term) []term.Term {
	t.Helper()
	repl := applyRule(t, r, env, stages...)
	cfg := VerifyConfig{Seed: 7, BlockWords: 4, Pow2Only: r.NeedsPow2()}
	if err := VerifyEquivalence(term.Seq(stages), term.Seq(repl), cfg); err != nil {
		t.Fatalf("%s: %v", r.Name, err)
	}
	return repl
}

func env() Env { return DefaultEnv() }

func TestSR2ReductionMulAdd(t *testing.T) {
	repl := verifyRule(t, SR2Reduction, env(),
		term.Scan{Op: algebra.Mul}, term.Reduce{Op: algebra.Add})
	if got := term.Seq(repl).String(); got != "map pair ; reduce(op_sr2(*,+)) ; map pi_1" {
		t.Fatalf("rewrite = %q", got)
	}
}

func TestSR2ReductionTropical(t *testing.T) {
	// + distributes over max: the maximum-segment-sum pair.
	verifyRule(t, SR2Reduction, env(),
		term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Max})
}

func TestSR2ReductionAllReduceVariant(t *testing.T) {
	repl := verifyRule(t, SR2Reduction, env(),
		term.Scan{Op: algebra.Mul}, term.Reduce{Op: algebra.Add, All: true})
	red, ok := repl[1].(term.Reduce)
	if !ok || !red.All {
		t.Fatalf("allreduce variant lost the All flag: %v", term.Seq(repl))
	}
}

func TestSR2ReductionRequiresDistributivity(t *testing.T) {
	// + does not distribute over *.
	refuseRule(t, SR2Reduction, env(),
		term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Mul})
	// - is not even associative.
	refuseRule(t, SR2Reduction, env(),
		term.Scan{Op: algebra.Sub}, term.Reduce{Op: algebra.Add})
}

func TestSRReductionAdd(t *testing.T) {
	repl := verifyRule(t, SRReduction, env(),
		term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Add})
	red, ok := repl[1].(term.Reduce)
	if !ok || !red.Balanced {
		t.Fatalf("SR-Reduction must produce a balanced reduction: %v", term.Seq(repl))
	}
}

func TestSRReductionAllReduce(t *testing.T) {
	repl := verifyRule(t, SRReduction, env(),
		term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Add, All: true})
	red := repl[1].(term.Reduce)
	if !red.All || !red.Balanced {
		t.Fatalf("allreduce_balanced expected: %v", term.Seq(repl))
	}
}

func TestSRReductionRequiresCommutativity(t *testing.T) {
	refuseRule(t, SRReduction, env(),
		term.Scan{Op: algebra.Left}, term.Reduce{Op: algebra.Left})
}

func TestSRReductionRequiresSameOperator(t *testing.T) {
	refuseRule(t, SRReduction, env(),
		term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Mul})
}

func TestSS2ScanMulAdd(t *testing.T) {
	repl := verifyRule(t, SS2Scan, env(),
		term.Scan{Op: algebra.Mul}, term.Scan{Op: algebra.Add})
	if _, ok := repl[1].(term.Scan); !ok {
		t.Fatalf("SS2-Scan must produce an ordinary scan: %v", term.Seq(repl))
	}
}

func TestSS2ScanTropical(t *testing.T) {
	verifyRule(t, SS2Scan, env(),
		term.Scan{Op: algebra.Add}, term.Scan{Op: algebra.Max})
}

func TestSS2ScanRequiresDistributivity(t *testing.T) {
	refuseRule(t, SS2Scan, env(),
		term.Scan{Op: algebra.Add}, term.Scan{Op: algebra.Mul})
}

func TestSSScanAdd(t *testing.T) {
	repl := verifyRule(t, SSScan, env(),
		term.Scan{Op: algebra.Add}, term.Scan{Op: algebra.Add})
	if _, ok := repl[1].(term.ScanBal); !ok {
		t.Fatalf("SS-Scan must produce a balanced scan: %v", term.Seq(repl))
	}
}

func TestSSScanMax(t *testing.T) {
	verifyRule(t, SSScan, env(),
		term.Scan{Op: algebra.Max}, term.Scan{Op: algebra.Max})
}

func TestSSScanRequiresCommutativity(t *testing.T) {
	refuseRule(t, SSScan, env(),
		term.Scan{Op: algebra.Left}, term.Scan{Op: algebra.Left})
}

func TestBSComcast(t *testing.T) {
	repl := verifyRule(t, BSComcast, env(),
		term.Bcast{}, term.Scan{Op: algebra.Add})
	if len(repl) != 1 {
		t.Fatalf("BS-Comcast should produce one stage: %v", term.Seq(repl))
	}
	if _, ok := repl[0].(term.Comcast); !ok {
		t.Fatalf("BS-Comcast must produce a comcast: %v", term.Seq(repl))
	}
}

func TestBSComcastNonCommutativeOp(t *testing.T) {
	// BS-Comcast needs only associativity; left projection qualifies.
	verifyRule(t, BSComcast, env(),
		term.Bcast{}, term.Scan{Op: algebra.Left})
}

func TestBSComcastRequiresAssociativity(t *testing.T) {
	refuseRule(t, BSComcast, env(), term.Bcast{}, term.Scan{Op: algebra.Sub})
}

func TestBSS2Comcast(t *testing.T) {
	verifyRule(t, BSS2Comcast, env(),
		term.Bcast{}, term.Scan{Op: algebra.Mul}, term.Scan{Op: algebra.Add})
}

func TestBSS2ComcastRequiresDistributivity(t *testing.T) {
	refuseRule(t, BSS2Comcast, env(),
		term.Bcast{}, term.Scan{Op: algebra.Add}, term.Scan{Op: algebra.Mul})
}

func TestBSSComcast(t *testing.T) {
	verifyRule(t, BSSComcast, env(),
		term.Bcast{}, term.Scan{Op: algebra.Add}, term.Scan{Op: algebra.Add})
}

func TestBSSComcastRequiresCommutativity(t *testing.T) {
	refuseRule(t, BSSComcast, env(),
		term.Bcast{}, term.Scan{Op: algebra.Left}, term.Scan{Op: algebra.Left})
}

func TestBRLocal(t *testing.T) {
	repl := verifyRule(t, BRLocal, env(),
		term.Bcast{}, term.Reduce{Op: algebra.Add})
	if _, ok := repl[0].(term.Iter); !ok || len(repl) != 1 {
		t.Fatalf("BR-Local must produce iter: %v", term.Seq(repl))
	}
}

func TestBRLocalRejectsAllReduce(t *testing.T) {
	refuseRule(t, BRLocal, env(), term.Bcast{}, term.Reduce{Op: algebra.Add, All: true})
}

func TestBRLocalRejectsNonPow2Machine(t *testing.T) {
	e := env()
	e.P = 6
	refuseRule(t, BRLocal, e, term.Bcast{}, term.Reduce{Op: algebra.Add})
	e.P = 8
	applyRule(t, BRLocal, e, term.Bcast{}, term.Reduce{Op: algebra.Add})
}

func TestBSR2Local(t *testing.T) {
	verifyRule(t, BSR2Local, env(),
		term.Bcast{}, term.Scan{Op: algebra.Mul}, term.Reduce{Op: algebra.Add})
}

func TestBSR2LocalRequiresDistributivity(t *testing.T) {
	refuseRule(t, BSR2Local, env(),
		term.Bcast{}, term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Mul})
}

func TestBSRLocal(t *testing.T) {
	verifyRule(t, BSRLocal, env(),
		term.Bcast{}, term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Add})
}

func TestBSRLocalRequiresCommutativity(t *testing.T) {
	refuseRule(t, BSRLocal, env(),
		term.Bcast{}, term.Scan{Op: algebra.Left}, term.Reduce{Op: algebra.Left})
}

func TestCRAllLocal(t *testing.T) {
	repl := verifyRule(t, CRAllLocal, env(),
		term.Bcast{}, term.Reduce{Op: algebra.Add, All: true})
	if len(repl) != 2 {
		t.Fatalf("CR-AllLocal should produce iter ; bcast: %v", term.Seq(repl))
	}
	if _, ok := repl[0].(term.Iter); !ok {
		t.Fatalf("first stage should be iter: %v", term.Seq(repl))
	}
	if _, ok := repl[1].(term.Bcast); !ok {
		t.Fatalf("second stage should be bcast: %v", term.Seq(repl))
	}
}

func TestCRAllLocalRejectsPlainReduce(t *testing.T) {
	refuseRule(t, CRAllLocal, env(), term.Bcast{}, term.Reduce{Op: algebra.Add})
}

func TestRulesDoNotMatchBalancedCollectives(t *testing.T) {
	// A balanced reduce on the left must not be re-fused.
	sr := algebra.OpSR(algebra.Add)
	refuseRule(t, SR2Reduction, env(),
		term.Scan{Op: algebra.Add}, term.Reduce{Op: sr, Balanced: true})
	refuseRule(t, SRReduction, env(),
		term.Scan{Op: algebra.Add}, term.Reduce{Op: sr, Balanced: true})
}

func TestAllRulesHaveDistinctNamesAndClasses(t *testing.T) {
	seen := map[string]bool{}
	classes := map[string]bool{"Reduction": true, "Scan": true, "Comcast": true, "Local": true}
	for _, r := range All() {
		if seen[r.Name] {
			t.Errorf("duplicate rule name %s", r.Name)
		}
		seen[r.Name] = true
		if !classes[r.Class] {
			t.Errorf("rule %s has unknown class %q", r.Name, r.Class)
		}
		if r.Window < 2 || r.Window > 3 {
			t.Errorf("rule %s has window %d", r.Name, r.Window)
		}
	}
	if len(seen) != 11 {
		t.Errorf("expected 11 rules, got %d", len(seen))
	}
}

func TestByName(t *testing.T) {
	r, ok := ByName("SS2-Scan")
	if !ok || r.Name != "SS2-Scan" {
		t.Fatalf("ByName failed: %v %v", r, ok)
	}
	if _, ok := ByName("No-Such-Rule"); ok {
		t.Fatal("ByName found a nonexistent rule")
	}
}

func TestWindowOrderingTripleRulesFirst(t *testing.T) {
	// In bcast ; scan(+) ; scan(+) the three-stage BSS-Comcast must win
	// over the two-stage BS-Comcast prefix.
	e := NewEngine()
	prog := term.Seq{term.Bcast{}, term.Scan{Op: algebra.Add}, term.Scan{Op: algebra.Add}}
	_, app, ok := e.Step(prog)
	if !ok {
		t.Fatal("no rule applied")
	}
	if app.Rule != "BSS-Comcast" {
		t.Fatalf("applied %s, want BSS-Comcast", app.Rule)
	}
}

func TestApplicationString(t *testing.T) {
	e := NewEngine()
	prog := term.Seq{term.Bcast{}, term.Scan{Op: algebra.Add}}
	_, app, ok := e.Step(prog)
	if !ok {
		t.Fatal("no rule applied")
	}
	s := app.String()
	if !strings.Contains(s, "BS-Comcast") || !strings.Contains(s, "=>") {
		t.Fatalf("Application.String() = %q", s)
	}
}

// TestForRuleMovesOnlyPow2Rules checks that only the rules that need
// p = 2^k move a check to power-of-two sizes: MM-Local, GS-Id and SG-Id are
// of class Local but hold at every p, so their checks keep the sizes given.
func TestForRuleMovesOnlyPow2Rules(t *testing.T) {
	cfg := VerifyConfig{Seed: 3, Sizes: []int{1, 3, 6}}
	pow2 := map[string]bool{"BR-Local": true, "BSR2-Local": true, "BSR-Local": true, "CR-AllLocal": true}
	for _, r := range AllWithExtensions() {
		got, moved := cfg.forRule(r.Name)
		if moved != pow2[r.Name] || r.NeedsPow2() != pow2[r.Name] {
			t.Errorf("%s: forRule moved the config %t, NeedsPow2 %t", r.Name, moved, r.NeedsPow2())
		}
		if !moved && (got.Pow2Only || len(got.Sizes) != 3) {
			t.Errorf("%s: forRule changed the config to %+v", r.Name, got)
		}
	}
	for _, name := range []string{"MM-Local", "GS-Id", "SG-Id"} {
		if r, _ := ByName(name); r.Class != "Local" || r.NeedsPow2() {
			t.Errorf("%s: class %s, NeedsPow2 %t; want class Local at every p", name, r.Class, r.NeedsPow2())
		}
	}
}
