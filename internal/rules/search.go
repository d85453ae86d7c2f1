package rules

import (
	"sync"
	"unsafe"

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
	// SourceCost is the searched program's own score; not on the wire.
	SourceCost float64 `json:"-"`
}

// Improved reports whether the search found a strictly better plan than
// the greedy engine.
func (s SearchStats) Improved() bool { return s.BestCost < s.GreedyCost }

// SearchOptimize finds the cheapest program derivable from the stage list
// t by the engine's rule set, scored by the end-to-end cost.OfTerm at the
// engine's parameters — a bounded exhaustive search with branch-and-bound
// pruning, memoized on rules.Canonical of intermediate programs. Unlike the
// greedy Optimize, it may pass through rewrites whose window cost does not
// improve when they enable a cheaper program overall, and it never takes
// a locally profitable rewrite that forfeits a better one downstream.
//
// The greedy derivation seeds the incumbent, so the returned plan costs
// at most the greedy plan's; on ties the greedy derivation is returned
// unchanged, and t itself when nothing applies. The engine must be
// cost-guided (Params set).
//
// The matches of t are enumerated once, for the greedy derivation and the
// search both, and each program the search reaches derives its matches
// from its parent's (matcher.derive). The search never branches on a
// window's price, so only the applications it returns are priced. Every
// list the search makes lives in its pooled state; only a searched plan and
// its windows are copied out.
func (e *Engine) SearchOptimize(t term.Seq, cfg SearchConfig) (term.Seq, []Application, SearchStats) {
	if e.Params == nil {
		panic("rules: SearchOptimize requires a cost-guided engine (Params set)")
	}
	st := searchStates.Get().(*searchState)
	defer st.release()
	m := e.matcher()
	s := &searcher{e: *e, m: m, cfg: cfg, p: *e.Params, searchState: st}
	stages := t.Flat()
	s.matches = m.all(s.matches, stages)
	root := since(s.matches, 0)
	greedyS, greedyApps := stages, []Application(nil)
	if len(root) > 0 {
		greedyS, greedyApps = e.greedy(m, stages, root)
	}
	gCost := e.scoreSeq(greedyS, s.p)

	s.best = gCost
	s.stats.Exhausted = true
	self := gCost // t is the greedy plan when greedy applied nothing
	if greedyApps != nil {
		self = e.scoreSeq(stages, s.p)
	}
	bt, bms, bcost := s.explore(node{stages: stages, ms: root}, self, 0)

	s.stats.GreedyCost, s.stats.SourceCost = gCost, self
	if bcost >= gCost {
		// The search found nothing better (a budget cut can even hide
		// the greedy path): keep the greedy derivation.
		s.stats.BestCost = gCost
		if greedyApps == nil {
			return t, nil, s.stats
		}
		return greedyS, greedyApps, s.stats
	}
	s.stats.BestCost = bcost
	apps := make([]Application, len(bms))
	for i, mt := range bms {
		apps[i] = m.application(mt)
		e.price(&apps[i])
	}
	return keep(bt, apps), apps, s.stats
}

// keep copies the searched plan and its applications' windows out of the
// pooled state, into one list; the replacements are the rules' own.
func keep(stages []term.Term, apps []Application) []term.Term {
	n := len(stages)
	for _, a := range apps {
		n += len(a.Before)
	}
	all := make([]term.Term, 0, n)
	for i := range apps {
		all = append(all, apps[i].Before...)
		apps[i].Before = since(all, len(all)-len(apps[i].Before))
	}
	return append(all, stages...)[n-len(stages):]
}

// searchState is what a search keeps between its nodes: the memo, and the
// slabs its keys, programs and match lists are appended to, which only grow
// until the call returns: a list cut from one (since) stays put. It is
// pooled; one grown past maxPooledMemo programs or maxPooledBytes a slab is
// dropped rather than kept behind every later search. Without the pool no
// timed row lost, but a plan-miss request allocated 9.7 more, beyond the
// 4.0 the planner's allocation budget allows (docs/PERF.md "What each
// planner mechanism buys").
type searchState struct {
	memo    map[string]memoEntry
	keys    []byte
	stages  []term.Term
	matches []match
}

var searchStates = sync.Pool{New: func() any { return &searchState{memo: make(map[string]memoEntry)} }}

const (
	maxPooledMemo  = 64
	maxPooledBytes = 64 << 10
)

func (st *searchState) release() {
	if len(st.memo) <= maxPooledMemo && max(size(st.keys), size(st.stages), size(st.matches)) <= maxPooledBytes {
		clear(st.memo)
		st.keys, st.stages, st.matches = st.keys[:0], st.stages[:0], st.matches[:0]
		searchStates.Put(st)
	}
}

// size is the bytes a slab holds.
func size[T any](slab []T) int { return cap(slab) * int(unsafe.Sizeof(*new(T))) }

// since is what was appended to a slab from start on, capped against writes.
func since[T any](slab []T, start int) []T { return slab[start:len(slab):len(slab)] }

type memoEntry struct {
	cost   float64
	stages []term.Term
	ms     []match
}

// searcher is the state of one search; nothing of it outlives the call. It
// holds a copy of the engine, so that the engine may stay on the stack.
type searcher struct {
	e   Engine
	m   matcher
	cfg SearchConfig
	p   cost.Params
	*searchState
	best  float64 // cheapest end-to-end cost seen anywhere (incumbent)
	stats SearchStats
}

// A node is a program the search reaches: its stage list, and its matches
// — the root's own, or derived from the parent's matches ms and the one
// applied, k, when they are first needed (a program answered from the memo,
// cut by the depth bound or pruned needs none).
type node struct {
	stages []term.Term
	ms     []match
	parent []match
	k      int
}

func (n node) matches(s *searcher) []match {
	if n.parent == nil {
		return n.ms
	}
	start := len(s.matches)
	s.matches = s.m.derive(s.matches, n.parent, n.k, n.stages)
	return since(s.matches, start)
}

// explore returns the cheapest program derivable from n (within the
// remaining budgets), its derivation, and its end-to-end cost; self is n's
// own cost.
func (s *searcher) explore(n node, self float64, depth int) ([]term.Term, []match, float64) {
	if self < s.best {
		s.best = self
	}
	bestT, bestCost := n.stages, self
	var bestMs []match

	switch {
	case depth >= s.cfg.maxDepth():
		s.stats.Exhausted = false
	case cost.Walk(n.stages, s.p, cost.PriceFloor, nil) >= s.best:
		// No derivation from here can beat the incumbent: every rewrite
		// keeps at least the floor's (cost.Floor) local work.
		s.stats.Pruned++
	default:
		ms := n.matches(s)
		for k := range ms {
			if s.stats.Nodes >= s.cfg.maxNodes() {
				s.stats.Exhausted = false
				break
			}
			s.stats.Nodes++
			ct, cms, ccost := s.child(n.stages, ms, k, depth+1)
			if ccost < bestCost {
				bestT, bestCost = ct, ccost
				start := len(s.matches)
				s.matches = append(append(s.matches, ms[k]), cms...)
				bestMs = since(s.matches, start)
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
// is rendered from the parent's stages, and the program is built only when
// it is explored. A program's entry is written
// once its subtree is explored, so the root's, which nothing would read, is
// never written.
func (s *searcher) child(stages []term.Term, ms []match, k, depth int) ([]term.Term, []match, float64) {
	start, a := len(s.keys), ms[k]
	s.keys = appendRewritten(s.keys, stages, a)
	key := since(s.keys, start)
	if m, ok := s.memo[string(key)]; ok {
		s.keys = s.keys[:start]
		s.stats.MemoHits++
		return m.stages, m.ms, m.cost
	}
	start = len(s.stages)
	s.stages = append(append(append(s.stages, stages[:a.pos]...), a.after...), stages[a.pos+len(a.before):]...)
	cs := since(s.stages, start)
	bt, bms, bcost := s.explore(node{stages: cs, parent: ms, k: k}, s.e.scoreSeq(cs, s.p), depth)
	// The key's bytes are not written again while the memo holds them. The
	// pooled state this views saves 9.7 allocations a plan-miss request
	// (docs/PERF.md "What each planner mechanism buys").
	s.memo[unsafe.String(&key[0], len(key))] = memoEntry{cost: bcost, stages: bt, ms: bms}
	return bt, bms, bcost
}
