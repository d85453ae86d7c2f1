package serve

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
)

// TestPlanSelection: selected plans carry the per-stage algorithm
// choices, live under select-qualified cache keys (no cross-talk with
// unselected plans), and repeat requests hit the cache.
func TestPlanSelection(t *testing.T) {
	pl := NewPlanner(64, 4)
	m := core.Machine{Ts: 203.6, Tw: 0.007, P: 8, M: 4096}
	prog, err := pl.ParseProgram("allreduce(+)")
	if err != nil {
		t.Fatal(err)
	}

	plain, _, err := pl.PlanTermOpts(prog, m, StrategyGreedy, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Selection) != 0 {
		t.Fatalf("unselected plan carries selections: %v", plain.Selection)
	}

	selected, cached, err := pl.PlanTermOpts(prog, m, StrategyGreedy, true)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("selected plan served from the unselected plan's cache entry")
	}
	if len(selected.Selection) == 0 {
		t.Fatal("selected plan carries no selections")
	}
	if got := selected.Selection[0].Algo; got == cost.AlgoButterfly {
		t.Fatalf("at m=4096 the selection should leave the butterfly, got %s", got)
	}
	if selected.CostAfter > plain.CostAfter {
		t.Fatalf("selected estimate %.0f worse than butterfly estimate %.0f",
			selected.CostAfter, plain.CostAfter)
	}

	if _, cached, _ = pl.PlanTermOpts(prog, m, StrategyGreedy, true); !cached {
		t.Fatal("repeat selected request missed the cache")
	}
}

// TestKeyOptsQualifiers: the select qualifier composes with the strategy
// qualifier and leaves legacy keys unchanged.
func TestKeyOptsQualifiers(t *testing.T) {
	m := core.Machine{Ts: 1, Tw: 2, P: 4, M: 8}
	const base = "prog|ts=1|tw=2|p=4|m=8" // the key format before either qualifier existed
	if KeyOpts("prog", m, StrategyGreedy, false) != base {
		t.Fatal("greedy unselected key must equal the legacy key")
	}
	sk := KeyOpts("prog", m, StrategySearch, true)
	if !strings.Contains(sk, "|strategy=search") || !strings.Contains(sk, "|select") {
		t.Fatalf("search+select key missing qualifiers: %q", sk)
	}
	if KeyOpts("prog", m, StrategyGreedy, true) == base {
		t.Fatal("selected key must differ from the legacy key")
	}
}
