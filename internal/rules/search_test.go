package rules

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/term"
)

// searchParams is a start-up-dominated machine where the greedy trap
// below is live: SS2-Scan's window improves (ts > 2m), so the greedy
// engine takes it.
var searchParams = cost.Params{Ts: 1000, Tw: 1, M: 64, P: 64}

// greedyTrap is the committed counterexample where the greedy engine
// forfeits the better plan: in scan(*) ; scan(+) ; reduce(+) the greedy
// Step fuses the two scans first (SS2-Scan at position 0, window cost
// improves when ts > 2m), leaving the reduction unfused behind the
// projection; the optimal derivation instead applies SR-Reduction at
// position 1, fusing scan(+) ; reduce(+) and leaving scan(*) — two
// collectives either way, but the balanced fused reduction costs
// m(2tw+4) per phase against the fused scan's m(2tw+6), so the whole
// program lands at log p·(2ts + m(3tw+6)) instead of the greedy
// log p·(2ts + m(3tw+7)): an m·log p saving. Documented in docs/RULES.md.
func greedyTrap() term.Seq {
	return term.Seq{
		term.Scan{Op: algebra.Mul},
		term.Scan{Op: algebra.Add},
		term.Reduce{Op: algebra.Add},
	}
}

func TestSearchBeatsGreedyOnTrap(t *testing.T) {
	e := NewCostGuidedEngine(searchParams)
	prog := greedyTrap()

	_, greedyApps := e.Optimize(prog)
	if len(greedyApps) != 1 || greedyApps[0].Rule != "SS2-Scan" || greedyApps[0].Pos != 0 {
		t.Fatalf("greedy derivation = %v, want the SS2-Scan@0 trap", greedyApps)
	}

	opt, apps, stats := e.SearchOptimize(prog, SearchConfig{})
	if !stats.Exhausted {
		t.Fatalf("search did not exhaust a 3-stage program: %+v", stats)
	}
	if !stats.Improved() {
		t.Fatalf("search did not beat greedy: %+v", stats)
	}
	if len(apps) != 1 || apps[0].Rule != "SR-Reduction" || apps[0].Pos != 1 {
		t.Fatalf("search derivation = %v, want SR-Reduction@1", apps)
	}
	if got := cost.OfTerm(opt, searchParams); got != stats.BestCost {
		t.Fatalf("BestCost %g does not match the returned term's cost %g", stats.BestCost, got)
	}
	// m·log p cheaper: L(2ts + m(3tw+7)) greedy vs L(2ts + m(3tw+6)).
	wantGain := searchParams.LogP() * float64(searchParams.M)
	if gain := stats.GreedyCost - stats.BestCost; gain != wantGain {
		t.Errorf("gain = %g, want %g", gain, wantGain)
	}
	if err := VerifyEquivalence(prog, opt, VerifyConfig{Seed: 5, BlockWords: 3}); err != nil {
		t.Fatalf("searched plan is not equivalent: %v", err)
	}
}

// TestSearchReturnsGreedyOnTie: where greedy is already optimal the
// search returns the greedy derivation unchanged.
func TestSearchReturnsGreedyOnTie(t *testing.T) {
	e := NewCostGuidedEngine(searchParams)
	prog := term.Seq{term.Scan{Op: algebra.Mul}, term.Reduce{Op: algebra.Add}}

	greedyT, greedyApps := e.Optimize(prog)
	opt, apps, stats := e.SearchOptimize(prog, SearchConfig{})
	if stats.Improved() {
		t.Fatalf("single-window program cannot improve on greedy: %+v", stats)
	}
	if Canonical(term.Compose(opt)) != Canonical(term.Compose(greedyT)) {
		t.Fatalf("tie should return the greedy term: %s vs %s", opt, greedyT)
	}
	if len(apps) != len(greedyApps) {
		t.Fatalf("tie should return the greedy derivation: %v vs %v", apps, greedyApps)
	}
}

// TestSearchBudgetNeverWorse: even with a starved node budget the search
// result is never worse than greedy (the greedy plan seeds the
// incumbent).
func TestSearchBudgetNeverWorse(t *testing.T) {
	e := NewCostGuidedEngine(searchParams)
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50; i++ {
		prog := RandProgram(rng, 8)
		opt, _, stats := e.SearchOptimize(prog, SearchConfig{MaxNodes: 3, MaxDepth: 2})
		if stats.BestCost > stats.GreedyCost {
			t.Fatalf("starved search worse than greedy on %s: %+v", Canonical(prog), stats)
		}
		if got := cost.OfTerm(opt, searchParams); got != stats.BestCost {
			t.Fatalf("returned term cost %g != BestCost %g", got, stats.BestCost)
		}
	}
}

// TestSearchNeverWorseProperty is the corpus property: over seeded
// random programs, on power-of-two and non-power-of-two machines, the
// searched plan (i) never costs more than the greedy plan, (ii) is
// bitwise equivalent to the original program, and (iii) agrees with
// greedy whenever greedy is already optimal (exhausted search, equal
// cost). At least one strict improvement must show up across the corpus.
func TestSearchNeverWorseProperty(t *testing.T) {
	const cases = 220
	machines := []cost.Params{
		{Ts: 1000, Tw: 1, M: 64, P: 64}, // pow2, start-up dominated
		{Ts: 300, Tw: 2, M: 48, P: 48},  // non-pow2: Local rules are fenced off
	}
	improved := 0
	for mi, p := range machines {
		e := NewCostGuidedEngine(p)
		rng := rand.New(rand.NewSource(int64(1000 + mi)))
		for i := 0; i < cases; i++ {
			prog := RandProgram(rng, 6)
			canon := Canonical(prog)

			greedyT, _ := e.Optimize(prog)
			gCost := cost.OfTerm(greedyT, p)

			opt, apps, stats := e.SearchOptimize(prog, SearchConfig{})
			if stats.GreedyCost != gCost {
				t.Fatalf("[p=%d %q] GreedyCost %g != engine's %g", p.P, canon, stats.GreedyCost, gCost)
			}
			if stats.BestCost > gCost {
				t.Fatalf("[p=%d %q] search plan %g worse than greedy %g", p.P, canon, stats.BestCost, gCost)
			}
			if got := cost.OfTerm(opt, p); got != stats.BestCost {
				t.Fatalf("[p=%d %q] returned term cost %g != BestCost %g", p.P, canon, got, stats.BestCost)
			}
			if stats.Exhausted && stats.BestCost == gCost &&
				Canonical(term.Compose(opt)) != Canonical(term.Compose(greedyT)) {
				t.Fatalf("[p=%d %q] exhausted tie returned a non-greedy plan: %s vs %s", p.P, canon, opt, greedyT)
			}
			if stats.Improved() {
				improved++
			}

			cfg := VerifyConfig{Seed: int64(i), Trials: 2, Sizes: []int{1, 2, 4, 8}}
			for _, a := range apps {
				if r, ok := ByName(a.Rule); ok && r.NeedsPow2() {
					cfg.Pow2Only = true
				}
			}
			if err := VerifyEquivalence(prog, opt, cfg); err != nil {
				t.Fatalf("[p=%d %q] searched plan not equivalent: %v", p.P, canon, err)
			}
		}
	}
	if improved == 0 {
		t.Fatal("no strict improvement anywhere in the corpus — the search is not searching")
	}
}

// TestVerifySearchOptimization: the searched derivation of a program with
// a known win passes the derivation check.
func TestVerifySearchOptimization(t *testing.T) {
	e := NewCostGuidedEngine(searchParams)
	prog := greedyTrap()
	opt, apps, stats := e.SearchOptimize(prog, SearchConfig{})
	if err := new(Verifier).CheckDerivation(prog, opt, apps, VerifyConfig{Seed: 7, BlockWords: 2}); err != nil {
		t.Fatalf("CheckDerivation: %v", err)
	}
	if !stats.Improved() || len(apps) != 1 {
		t.Fatalf("expected the searched win, got stats %+v apps %v", stats, apps)
	}
	if got := cost.OfTerm(opt, searchParams); got != stats.BestCost {
		t.Fatalf("returned term cost %g != BestCost %g", got, stats.BestCost)
	}
}

// TestSearchRequiresCostGuidedEngine pins the contract: a plain engine
// has no objective to search with.
func TestSearchRequiresCostGuidedEngine(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SearchOptimize on a cost-free engine should panic")
		}
	}()
	NewEngine().SearchOptimize(term.Seq{term.Bcast{}}, SearchConfig{})
}

// TestSearchPricesWindowsWithTheEngineModel: a derivation found by the
// plan search reports its window costs under the engine's own model — the
// portfolio's on an Auto engine — like every other enumeration of the one
// match loop. The program is a committed case where the search beats the
// greedy plan on an Auto engine and the portfolio prices the
// bcast ; allreduce(*) window below the butterfly line, so pricing a
// searched window with cost.OfTerm (as the search once did) shows.
func TestSearchPricesWindowsWithTheEngineModel(t *testing.T) {
	pp := cost.Params{Ts: 150, Tw: 1.25, M: 65536, P: 8}
	prog := term.Seq{
		term.Bcast{},
		term.Reduce{Op: algebra.Mul, All: true},
		term.Reduce{Op: algebra.Left},
	}
	e := NewCostGuidedEngine(pp)
	e.Auto = true
	_, apps, stats := e.SearchOptimize(prog, SearchConfig{})
	if !stats.Improved() || len(apps) == 0 {
		t.Fatalf("want a searched (non-greedy) derivation, got %v with %+v", apps, stats)
	}
	differs := false
	for _, a := range append(apps, e.Applicable(prog)...) {
		before, after := e.score(term.Seq(a.Before), pp), e.score(term.Seq(a.After), pp)
		if a.CostBefore != before || a.CostAfter != after {
			t.Errorf("%s @%d: reported %g -> %g, the engine's model prices the window %g -> %g",
				a.Rule, a.Pos, a.CostBefore, a.CostAfter, before, after)
		}
		differs = differs || before != cost.OfTerm(term.Seq(a.Before), pp)
	}
	if !differs {
		t.Fatal("no window is priced differently by the portfolio; the case no longer tests anything")
	}
}

// TestSearchPoolDropsOversizedStates: a search of scan(*) ; reduce(+) × 128
// grows its memo past maxPooledMemo programs, and no state over the caps
// comes back from the pool after it: one that big is dropped rather than
// kept behind every later search.
func TestSearchPoolDropsOversizedStates(t *testing.T) {
	e := NewCostGuidedEngine(daemonParams)
	_, _, stats := e.SearchOptimize(longShape(longShapes["scan(*) ; reduce(+)"], 128), SearchConfig{})
	if stats.Nodes-stats.MemoHits <= maxPooledMemo {
		t.Fatalf("the search explored %d programs, not past the cap of %d", stats.Nodes-stats.MemoHits, maxPooledMemo)
	}
	for range 8 {
		st := searchStates.Get().(*searchState)
		if n, b := len(st.memo), max(size(st.keys), size(st.stages), size(st.matches)); n > maxPooledMemo || b > maxPooledBytes {
			t.Fatalf("the pool handed out a state of %d programs and a %d-byte slab, caps %d and %d", n, b, maxPooledMemo, maxPooledBytes)
		}
	}
}
