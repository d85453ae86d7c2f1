package rules_test

import (
	"testing"

	"repro/internal/cost"
	"repro/internal/exper"
	"repro/internal/rules"
)

// TestCostGuidedMatchesTable1Predicate: for every rule of Table 1, the
// engine's accept/refuse decision from the general term estimator must
// agree with the improvement condition derived for the rule's row, across
// a parameter sweep. The patterns and the rows are exper's — the one list
// — which is why this test lives outside package rules.
func TestCostGuidedMatchesTable1Predicate(t *testing.T) {
	sweep := []cost.Params{}
	for _, ts := range []float64{1, 10, 100, 1000, 10000} {
		for _, tw := range []float64{1, 4} {
			for _, m := range []int{1, 16, 256, 4096} {
				sweep = append(sweep, cost.Params{Ts: ts, Tw: tw, M: m, P: 64})
			}
		}
	}
	for _, pat := range exper.Patterns() {
		entry, err := exper.Entry(pat.Rule)
		if err != nil {
			t.Fatal(err)
		}
		r, ok := rules.ByName(pat.Rule)
		if !ok {
			t.Fatalf("no rule named %s", pat.Rule)
		}
		for _, p := range sweep {
			e := rules.NewCostGuidedEngine(p)
			e.Rules = []rules.Rule{r} // isolate the rule under test
			_, apps := e.Optimize(pat.LHS.Term())
			applied := len(apps) == 1
			want := entry.Improves(p)
			if applied != want {
				t.Errorf("%s at %+v: engine applied=%v, Table 1 improves=%v",
					pat.Rule, p, applied, want)
			}
		}
	}
}
