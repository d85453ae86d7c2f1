package serve

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/term"
)

// TestSparsePlanEndToEnd drives a ragged reduce_scatterv/allgatherv
// pair through the verifying planner: the RSAG-AllReduce rewrite must
// fire, the plan must verify (the verifier pins its machine sizes to
// the counts length, overriding the planner's dense defaults), and the
// second request must come from the cache without another engine run.
func planSource(pl *Planner, src string, m core.Machine) (Plan, bool, error) {
	t, err := pl.ParseProgram(src)
	if err != nil {
		return Plan{}, false, err
	}
	return pl.PlanTermOpts(t, m, StrategyGreedy, false)
}

func TestSparsePlanEndToEnd(t *testing.T) {
	pl := NewPlanner(16, 1)
	m := core.Machine{Ts: 4, Tw: 1, P: 3, M: 2}
	plan, cached, err := planSource(pl, "reduce_scatterv(+,2,0,3) ; allgatherv(2,0,3)", m)
	if err != nil {
		t.Fatalf("sparse plan failed: %v", err)
	}
	if cached {
		t.Fatal("first plan reported cached")
	}
	if !plan.Verified {
		t.Fatal("plan not verified")
	}
	if len(plan.Applications) == 0 {
		t.Fatalf("RSAG-AllReduce did not fire; optimized to %q", plan.Optimized)
	}
	want := rules.Canonical(term.Seq{term.Reduce{Op: algebra.Add, All: true}})
	if plan.Optimized != want {
		t.Fatalf("optimized to %q, want %q", plan.Optimized, want)
	}
	if plan.CostAfter >= plan.CostBefore {
		t.Fatalf("plan did not improve: %g -> %g", plan.CostBefore, plan.CostAfter)
	}
	// A re-spelled but canonically identical program hits the cache.
	again, cached, err := planSource(pl, "reduce_scatterv(+,2,0,3);allgatherv(2,0,3)", m)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("identical canonical program missed the cache")
	}
	if again.Optimized != plan.Optimized {
		t.Fatal("cache returned a different plan")
	}
	if runs := pl.EngineRuns(); runs != 1 {
		t.Fatalf("%d engine runs for one distinct program", runs)
	}
}

// TestSparseSearchPlanEscapesGreedyTrap serves the halo chain whose
// only improvement needs the cost-neutral MH-Mobility step first: the
// greedy strategy must return it unchanged, the search strategy must
// find the combined halo — both verified, under distinct cache keys.
func TestSparseSearchPlanEscapesGreedyTrap(t *testing.T) {
	pl := NewPlanner(16, 1)
	m := core.Machine{Ts: 4, Tw: 1, P: 4, M: 1}
	prog, err := pl.ParseProgram("halo(-1,1) ; map inc_t ; halo(-1,1)")
	if err != nil {
		t.Fatal(err)
	}
	greedy, _, err := pl.PlanTermOpts(prog, m, StrategyGreedy, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(greedy.Applications) != 0 {
		t.Fatalf("greedy unexpectedly applied %v", greedy.Applications)
	}
	searched, cached, err := pl.PlanTermOpts(prog, m, StrategySearch, false)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("search plan served from the greedy cache entry")
	}
	if searched.CostAfter >= greedy.CostAfter {
		t.Fatalf("search did not beat greedy: %g vs %g", searched.CostAfter, greedy.CostAfter)
	}
	if len(searched.Applications) < 2 {
		t.Fatalf("search applied %d rules, want the MH+HH chain", len(searched.Applications))
	}
	if !searched.Verified {
		t.Fatal("searched plan not verified")
	}
}
