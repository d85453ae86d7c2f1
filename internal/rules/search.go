package rules

import (
	"sync"

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
//
// The matches of t are enumerated once, for the greedy derivation and the
// search both, and each program the search reaches derives its matches
// from its parent's (matcher.derive). The search never branches on a
// window's price, so only the applications it returns are priced.
func (e *Engine) SearchOptimize(t term.Term, cfg SearchConfig) (term.Term, []Application, SearchStats) {
	if e.Params == nil {
		panic("rules: SearchOptimize requires a cost-guided engine (Params set)")
	}
	m := e.matcher()
	stages := term.Stages(t)
	root := m.all(stages)
	greedyT, greedyApps := t, []Application(nil)
	if root != nil {
		greedyT, greedyApps = e.greedy(m, t, stages, root)
	}
	gCost := e.score(greedyT, *e.Params)

	s := &searcher{
		e:    e,
		m:    m,
		cfg:  cfg,
		p:    *e.Params,
		best: gCost,
	}
	s.stats.Exhausted = true
	if root != nil {
		s.searchState = searchStates.Get().(*searchState)
		defer s.searchState.release()
	}
	self := gCost // t is the greedy plan when greedy applied nothing
	if greedyApps != nil {
		self = e.score(t, s.p)
	}
	bt, bms, bcost := s.explore(node{t: t, stages: stages, ms: root}, self, 0)

	s.stats.GreedyCost = gCost
	if bcost >= gCost {
		// The search found nothing better (a budget cut can even hide
		// the greedy path): keep the greedy derivation.
		s.stats.BestCost = gCost
		return greedyT, greedyApps, s.stats
	}
	s.stats.BestCost = bcost
	apps := make([]Application, len(bms))
	for i, mt := range bms {
		apps[i] = m.application(mt)
		e.price(&apps[i])
	}
	return bt, apps, s.stats
}

// searchState is what a search keeps between its nodes: the memo, and the
// buffer a program's key is rendered into to be looked up. It is pooled, a
// search's own for the length of the call; one that grew past
// maxPooledMemo programs or maxPooledKey bytes is dropped rather than kept
// behind every later search.
type searchState struct {
	memo map[string]memoEntry
	key  []byte
}

var searchStates = sync.Pool{New: func() any {
	return &searchState{memo: make(map[string]memoEntry), key: make([]byte, 0, 256)}
}}

const (
	maxPooledMemo = 64
	maxPooledKey  = 4 << 10
)

func (st *searchState) release() {
	if len(st.memo) <= maxPooledMemo && cap(st.key) <= maxPooledKey {
		clear(st.memo)
		searchStates.Put(st)
	}
}

type memoEntry struct {
	cost float64
	t    term.Term
	ms   []match
}

// searcher is the state of one search; nothing of it outlives the call.
type searcher struct {
	e   *Engine
	m   matcher
	cfg SearchConfig
	p   cost.Params
	*searchState
	best  float64 // cheapest end-to-end cost seen anywhere (incumbent)
	stats SearchStats
}

// A node is a program the search reaches: its term and stage list, and its
// matches — the root's own, or derived from the parent's matches ms and the
// one applied, k, when they are first needed (a program answered from the
// memo, cut by the depth bound or pruned needs none).
type node struct {
	t      term.Term
	stages []term.Term
	ms     []match
	parent []match
	k      int
}

func (n node) matches(m matcher) []match {
	if n.parent == nil {
		return n.ms
	}
	return m.derive(n.parent, n.k, n.stages)
}

// explore returns the cheapest program derivable from n (within the
// remaining budgets), its derivation, and its end-to-end cost; self is n's
// own cost.
func (s *searcher) explore(n node, self float64, depth int) (term.Term, []match, float64) {
	if self < s.best {
		s.best = self
	}
	bestT, bestCost := n.t, self
	var bestMs []match

	switch {
	case depth >= s.cfg.maxDepth():
		s.stats.Exhausted = false
	case cost.Floor(n.t, s.p) >= s.best:
		// No derivation from here can beat the incumbent: every rewrite
		// keeps at least the floor's local work.
		s.stats.Pruned++
	default:
		ms := n.matches(s.m)
		for k := range ms {
			if s.stats.Nodes >= s.cfg.maxNodes() {
				s.stats.Exhausted = false
				break
			}
			s.stats.Nodes++
			ct, cms, ccost := s.child(n.stages, ms, k, depth+1)
			if ccost < bestCost {
				bestT, bestCost = ct, ccost
				bestMs = append([]match{ms[k]}, cms...)
				if ccost < s.best {
					s.best = ccost
				}
			}
		}
	}
	return bestT, bestMs, bestCost
}

// child explores the program the k-th of the matches ms rewrites stages
// to, answered from the memo when a derivation reached it before: the key
// is rendered from the parent's stages into a reused buffer, and the
// program is built only when it is explored. A program's entry is written
// once its subtree is explored, so the root's, which nothing would read, is
// never written.
func (s *searcher) child(stages []term.Term, ms []match, k, depth int) (term.Term, []match, float64) {
	s.key = appendRewritten(s.key[:0], stages, ms[k])
	if m, ok := s.memo[string(s.key)]; ok {
		s.stats.MemoHits++
		return m.t, m.ms, m.cost
	}
	key := string(s.key)
	a := ms[k]
	cs := rewritten(stages, a.pos, len(a.before), a.after)
	n := node{t: term.Seq(cs), stages: cs, parent: ms, k: k}
	bt, bms, bcost := s.explore(n, s.e.score(n.t, s.p), depth)
	s.memo[key] = memoEntry{cost: bcost, t: bt, ms: bms}
	return bt, bms, bcost
}
