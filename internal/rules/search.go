package rules

import (
	"repro/internal/cost"
	"repro/internal/term"
)

// This file implements the global plan search over rewrite choices. The
// greedy engine (Step/Optimize) applies the first rule whose window cost
// improves, which can forfeit a strictly better derivation downstream —
// the trap ILP-based fusion work (van Balen et al., PAPERS.md) identifies
// for fusion choice. SearchOptimize instead explores the whole space of
// rule-application sequences within a bounded budget, scores every
// candidate program with the end-to-end cost of the full term (block
// sizes tracked through scatter/gather), memoizes intermediate programs
// on their canonical rendering, and prunes with an admissible cost lower
// bound (cost.Floor). The result is never worse than the greedy plan: the
// greedy derivation seeds the incumbent.

// Default search budgets: enough to exhaust the derivation space of any
// program the generator or the examples produce, while bounding the
// latency of a cold plan-cache miss in the serving layer.
const (
	// DefaultSearchNodes is the default expansion budget (rule
	// applications tried).
	DefaultSearchNodes = 4096
	// DefaultSearchDepth is the default bound on derivation length.
	DefaultSearchDepth = 32
)

// SearchConfig bounds the plan search. The zero value selects the
// defaults.
type SearchConfig struct {
	// MaxNodes is the expansion budget: the total number of rule
	// applications the search may try across the whole run.
	MaxNodes int
	// MaxDepth bounds the length of a single derivation.
	MaxDepth int
}

func (c SearchConfig) maxNodes() int {
	if c.MaxNodes <= 0 {
		return DefaultSearchNodes
	}
	return c.MaxNodes
}

func (c SearchConfig) maxDepth() int {
	if c.MaxDepth <= 0 {
		return DefaultSearchDepth
	}
	return c.MaxDepth
}

// SearchStats reports what the search did.
type SearchStats struct {
	// Nodes is the number of rule applications expanded.
	Nodes int `json:"nodes"`
	// MemoHits counts intermediate programs answered from the memo table
	// (distinct derivations converging on one canonical program).
	MemoHits int `json:"memo_hits"`
	// Pruned counts subtrees cut by the cost lower bound.
	Pruned int `json:"pruned"`
	// Exhausted reports that the whole space was explored within the
	// budgets: the returned plan is optimal over the rule set, not just
	// the best found so far.
	Exhausted bool `json:"exhausted"`
	// GreedyCost and BestCost are the end-to-end estimates of the greedy
	// plan and the searched plan (BestCost <= GreedyCost always).
	GreedyCost float64 `json:"greedy_cost"`
	// BestCost is the end-to-end estimate of the returned plan.
	BestCost float64 `json:"best_cost"`
}

// Improved reports whether the search found a strictly better plan than
// the greedy engine.
func (s SearchStats) Improved() bool { return s.BestCost < s.GreedyCost }

// SearchOptimize finds the cheapest program derivable from t by the
// engine's rule set, scored by the end-to-end cost.OfTerm at the engine's
// parameters — a bounded exhaustive search with branch-and-bound pruning,
// memoized on rules.Canonical of intermediate programs. Unlike the greedy
// Optimize, it may pass through rewrites whose window cost does not
// improve when they enable a cheaper program overall, and it never takes
// a locally profitable rewrite that forfeits a better one downstream.
//
// The greedy derivation seeds the incumbent, so the returned plan costs
// at most the greedy plan's; on ties the greedy derivation is returned
// unchanged. The engine must be cost-guided (Params set).
func (e *Engine) SearchOptimize(t term.Term, cfg SearchConfig) (term.Term, []Application, SearchStats) {
	if e.Params == nil {
		panic("rules: SearchOptimize requires a cost-guided engine (Params set)")
	}
	greedyT, greedyApps := e.Optimize(t)
	gCost := e.score(greedyT, *e.Params)

	s := &searcher{
		e:    e,
		cfg:  cfg,
		p:    *e.Params,
		memo: make(map[string]memoEntry),
		best: gCost,
	}
	s.stats.Exhausted = true
	bt, bapps, bcost := s.explore(t, 0)

	s.stats.GreedyCost = gCost
	if bcost >= gCost {
		// The search found nothing better (a budget cut can even hide
		// the greedy path): keep the greedy derivation.
		s.stats.BestCost = gCost
		return greedyT, greedyApps, s.stats
	}
	s.stats.BestCost = bcost
	return bt, bapps, s.stats
}

type memoEntry struct {
	cost float64
	t    term.Term
	apps []Application
}

type searcher struct {
	e     *Engine
	cfg   SearchConfig
	p     cost.Params
	memo  map[string]memoEntry
	best  float64 // cheapest end-to-end cost seen anywhere (incumbent)
	stats SearchStats
}

// explore returns the cheapest program derivable from t (within the
// remaining budgets), its derivation, and its end-to-end cost.
func (s *searcher) explore(t term.Term, depth int) (term.Term, []Application, float64) {
	key := Canonical(term.Compose(t))
	if m, ok := s.memo[key]; ok {
		s.stats.MemoHits++
		return m.t, m.apps, m.cost
	}

	self := s.e.score(t, s.p)
	if self < s.best {
		s.best = self
	}
	bestT, bestCost := t, self
	var bestApps []Application

	switch {
	case depth >= s.cfg.maxDepth():
		s.stats.Exhausted = false
	case cost.Floor(t, s.p) >= s.best:
		// No derivation from here can beat the incumbent: every rewrite
		// keeps at least the floor's local work.
		s.stats.Pruned++
	default:
		stages := term.Stages(t)
		for _, app := range s.e.applicable(stages) {
			if s.stats.Nodes >= s.cfg.maxNodes() {
				s.stats.Exhausted = false
				break
			}
			s.stats.Nodes++
			ct, capps, ccost := s.explore(app.Rewrite(stages), depth+1)
			if ccost < bestCost {
				bestT, bestCost = ct, ccost
				bestApps = append([]Application{app}, capps...)
				if ccost < s.best {
					s.best = ccost
				}
			}
		}
	}

	s.memo[key] = memoEntry{cost: bestCost, t: bestT, apps: bestApps}
	return bestT, bestApps, bestCost
}
