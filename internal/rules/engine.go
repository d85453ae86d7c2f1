package rules

import (
	"strconv"

	"repro/internal/cost"
	"repro/internal/term"
)

// Application records one rule application performed by the Engine.
type Application struct {
	// Rule is the name of the applied rule.
	Rule string
	// Pos is the stage index at which the left-hand side matched.
	Pos int
	// Before and After are the matched window and its replacement.
	Before, After []term.Term
	// CostBefore and CostAfter are the cost estimates of the window,
	// populated when the engine is cost-guided.
	CostBefore, CostAfter float64
}

// String renders "RULE @pos: window  =>  replacement", each side as
// term.Seq prints it.
func (a Application) String() string {
	var buf [128]byte
	b := append(buf[:0], a.Rule...)
	b = append(b, " @"...)
	b = strconv.AppendInt(b, int64(a.Pos), 10)
	b = append(b, ": "...)
	b = appendJoined(b, a.Before)
	b = append(b, "  =>  "...)
	b = appendJoined(b, a.After)
	return string(b)
}

// Engine applies optimization rules over a term.
type Engine struct {
	// Env supplies the property registry and machine size.
	Env Env
	// Rules is the rule set in priority order; nil means All() followed
	// by Sparse().
	Rules []Rule
	// Params, when non-nil, makes the engine cost-guided: a rule is
	// applied only if the cost estimate of the replacement is strictly
	// lower than that of the matched window — the design discipline of
	// §4, mechanized.
	Params *cost.Params
	// Auto switches the cost-guided scoring from the butterfly model
	// (cost.OfTerm) to the algorithm-portfolio model (cost.OfTermAuto):
	// eligible reduction stages are priced at their best-known algorithm,
	// so a rewrite is judged against what the selection layer will
	// actually run. Requires Params.
	Auto bool
}

// score prices a term under the engine's model: the portfolio-aware
// estimate when Auto is set, the butterfly estimate otherwise.
func (e *Engine) score(t term.Term, p cost.Params) float64 {
	if e.Auto {
		return cost.OfTermAuto(t, p)
	}
	return cost.OfTerm(t, p)
}

// NewEngine returns an exhaustive engine over all rules with the default
// environment.
func NewEngine() *Engine {
	return &Engine{Env: DefaultEnv()}
}

// NewCostGuidedEngine returns an engine that only applies rules improving
// the cost estimate at the given machine parameters.
func NewCostGuidedEngine(p cost.Params) *Engine {
	e := NewEngine()
	e.Params = &p
	e.Env.P = p.P
	return e
}

// A match is a (position, rule) pair whose pattern and conditions hold: rule
// indexes the matcher's rule list, before is the window — a view of the
// stage list it was found in, which nothing writes to — and after is what
// Try returned. A match is unpriced; whoever needs its prices asks for them.
type match struct {
	rule, pos     int
	before, after []term.Term
}

// matcher enumerates an engine's matches in the one order every caller sees
// them: stages left to right, rules in priority order at each position. A
// position is tried only against the rules that can head a window there.
type matcher struct {
	env   Env
	rs    []Rule
	heads *heads
}

// heads lists, per stage kind (kindOf), the indices of the rules a stage of
// that kind can head, in priority order: the rules whose Head is of the kind
// and the rules that declare none. maxWindow is the widest window.
type heads struct {
	byKind    [numKinds][]int
	maxWindow int
}

func newHeads(rs []Rule) *heads {
	h := &heads{}
	for k := range h.byKind {
		for i, r := range rs {
			if r.Head == nil || kindOf(r.Head) == k {
				h.byKind[k] = append(h.byKind[k], i)
			}
		}
	}
	for _, r := range rs {
		h.maxWindow = max(h.maxWindow, r.Window)
	}
	return h
}

// defaultHeads is the head table of defaultRules, built once.
var defaultHeads = newHeads(defaultRules)

// numKinds bounds kindOf.
const numKinds = 14

// kindOf numbers the stage types, 0 for a value of none of them.
func kindOf(t term.Term) int {
	switch t.(type) {
	case term.Map:
		return 1
	case term.MapIdx:
		return 2
	case term.Scan:
		return 3
	case term.ScanBal:
		return 4
	case term.Reduce:
		return 5
	case term.Bcast:
		return 6
	case term.Comcast:
		return 7
	case term.Gather:
		return 8
	case term.Scatter:
		return 9
	case term.Iter:
		return 10
	case term.Halo:
		return 11
	case term.AllGatherV:
		return 12
	case term.ReduceScatterV:
		return 13
	}
	return 0
}

// matcher is the engine's rule list with its head table: the catalog's,
// built once, or one built for this call from the caller's Rules.
func (e *Engine) matcher() matcher {
	if e.Rules == nil {
		return matcher{e.Env, defaultRules, defaultHeads}
	}
	return matcher{e.Env, e.Rules, newHeads(e.Rules)}
}

// try matches rule ri at position i of stages.
func (m matcher) try(stages []term.Term, i, ri int) (match, bool) {
	end := i + m.rs[ri].Window
	if end > len(stages) {
		return match{}, false
	}
	w := stages[i:end:end]
	after, ok := m.rs[ri].Try(w, m.env)
	return match{ri, i, w, after}, ok
}

// all lists every match in stages.
func (m matcher) all(stages []term.Term) []match {
	var ms []match
	for i, st := range stages {
		for _, ri := range m.heads.byKind[kindOf(st)] {
			if mt, ok := m.try(stages, i, ri); ok {
				ms = append(ms, mt)
			}
		}
	}
	return ms
}

// derive returns the matches of child, the program the k-th of the parent's
// matches ms rewrites the parent to. A rule reads only its window (and Env),
// so a window that lies wholly left of the rewritten one is the parent's,
// with the parent's verdict, and one that lies wholly right of it is the
// parent's shifted by the change in length: only the positions whose window
// meets the replacement — or, for an empty one, spans the seam — are tried.
// The order is the parent's by construction.
func (m matcher) derive(ms []match, k int, child []term.Term) []match {
	a := ms[k]
	pos, end := a.pos, a.pos+len(a.after)
	shift := len(a.after) - len(a.before)
	out := make([]match, 0, len(ms)+len(a.after))
	lo := max(0, pos-m.heads.maxWindow+1)
	i := 0
	for ; ms[i].pos < lo; i++ {
		out = append(out, ms[i])
	}
	for j := lo; j < end; j++ {
		for _, ri := range m.heads.byKind[kindOf(child[j])] {
			inParent := i < len(ms) && ms[i].pos == j && ms[i].rule == ri && j < pos
			if inParent {
				i++
			}
			if j+m.rs[ri].Window <= pos {
				if inParent {
					out = append(out, ms[i-1])
				}
				continue
			}
			if mt, ok := m.try(child, j, ri); ok {
				out = append(out, mt)
			}
		}
	}
	for ; i < len(ms); i++ {
		if mt := ms[i]; mt.pos >= pos+len(a.before) {
			mt.pos += shift
			out = append(out, mt)
		}
	}
	return out
}

// application is the match as an Application, unpriced.
func (m matcher) application(mt match) Application {
	return Application{Rule: m.rs[mt.rule].Name, Pos: mt.pos, Before: mt.before, After: mt.after}
}

// price fills in the application's window prices under the engine's model.
func (e *Engine) price(a *Application) {
	a.CostBefore = e.score(term.Seq(a.Before), *e.Params)
	a.CostAfter = e.score(term.Seq(a.After), *e.Params)
}

// takes returns the match as the greedy engine's next application and
// whether the engine takes it: a cost-guided engine prices it and takes it
// only if the replacement prices strictly lower than the window, or, for a
// CostNeutral rule, not higher; any other engine takes every match.
func (e *Engine) takes(m matcher, mt match) (Application, bool) {
	app := m.application(mt)
	if e.Params == nil {
		return app, true
	}
	e.price(&app)
	refused := app.CostAfter >= app.CostBefore && !(m.rs[mt.rule].CostNeutral && app.CostAfter == app.CostBefore)
	return app, !refused
}

// first returns the first match at a position in [lo, hi) of stages that
// the greedy engine takes, trying each; windows that end at or before skip
// are known to be refused and are not tried again.
func (e *Engine) first(m matcher, stages []term.Term, lo, hi, skip int) (Application, bool) {
	for j := lo; j < hi; j++ {
		for _, ri := range m.heads.byKind[kindOf(stages[j])] {
			if j+m.rs[ri].Window <= skip {
				continue
			}
			if mt, ok := m.try(stages, j, ri); ok {
				if app, ok := e.takes(m, mt); ok {
					return app, true
				}
			}
		}
	}
	return Application{}, false
}

// Rewrite returns the flattened stage list (term.Stages) with the
// application's matched window replaced by its replacement.
func (a Application) Rewrite(stages []term.Term) term.Term {
	return term.Seq(rewritten(stages, a.Pos, len(a.Before), a.After))
}

// rewritten is stages with the w stages at pos replaced by after, in fresh
// storage.
func rewritten(stages []term.Term, pos, w int, after []term.Term) []term.Term {
	out := make([]term.Term, 0, len(stages)-w+len(after))
	out = append(out, stages[:pos]...)
	out = append(out, after...)
	return append(out, stages[pos+w:]...)
}

// splice replaces the w stages at pos of stages by after in place, growing
// the slice when after is longer.
func splice(stages []term.Term, pos, w int, after []term.Term) []term.Term {
	n, d := len(stages), len(after)-w
	if d > 0 {
		stages = append(stages, after[:d]...)
	}
	copy(stages[pos+len(after):], stages[pos+w:n])
	copy(stages[pos:], after)
	if d < 0 {
		clear(stages[n+d : n])
	}
	return stages[:n+d]
}

// Step performs the first applicable rule application, scanning stages
// left to right and trying rules in priority order at each position; a
// cost-guided engine skips matches whose replacement does not price
// strictly lower than the window (or, for a CostNeutral rule, not
// higher). It returns the rewritten term and the application, or ok =
// false if no rule applies.
func (e *Engine) Step(t term.Term) (term.Term, Application, bool) {
	stages := term.Stages(t)
	app, ok := e.first(e.matcher(), stages, 0, len(stages), 0)
	if !ok {
		return t, Application{}, false
	}
	return app.Rewrite(stages), app, true
}

// Optimize applies Step until no rule applies, returning the final term
// and the applications performed in order. Termination is guaranteed:
// every rule strictly decreases the number of collective operations.
func (e *Engine) Optimize(t term.Term) (term.Term, []Application) {
	return e.greedy(e.matcher(), t, term.Stages(t), nil)
}

// greedy is Optimize of t, whose stage list is stages. Each step resumes
// where the last one rewrote, less a window: a window that ends at or before
// the rewritten position is what the steps before refused, unchanged. A
// non-nil root lists every match in stages, and windows that no rewrite has
// reached — from frontier on, the root's stages shifted by shift — are read
// from it rather than tried again.
func (e *Engine) greedy(m matcher, t term.Term, stages []term.Term, root []match) (term.Term, []Application) {
	rooted := root != nil
	var (
		apps     []Application
		owned    bool // stages is greedy's own copy, rewritten in place
		lo, skip int
		frontier = len(stages)
		shift    int
		next     int // root[next:] are the matches not yet passed
	)
	if rooted {
		frontier = 0
	}
	for {
		app, ok := e.first(m, stages, lo, min(frontier, len(stages)), skip)
		if !ok && rooted {
			for ; next < len(root); next++ {
				if mt := root[next]; mt.pos+shift >= frontier {
					mt.pos += shift
					if app, ok = e.takes(m, mt); ok {
						break
					}
				}
			}
		}
		if !ok {
			break
		}
		w, l := len(app.Before), len(app.After)
		if !owned {
			stages = append(make([]term.Term, 0, len(stages)+l), stages...)
			owned = true
		} else if app.Pos < frontier {
			// The window is a view of the stages about to be rewritten.
			app.Before = append([]term.Term(nil), app.Before...)
		}
		stages = splice(stages, app.Pos, w, app.After)
		apps = append(apps, app)
		lo, skip = max(0, app.Pos-m.heads.maxWindow+1), app.Pos
		if rooted {
			frontier = max(frontier+l-w, app.Pos+l)
			shift += l - w
		} else {
			frontier = len(stages)
		}
	}
	if apps == nil {
		return t, nil
	}
	return term.Seq(stages[:len(stages):len(stages)]), apps
}

// Applicable lists, without rewriting, every (position, rule) pair whose
// pattern and conditions match in the term — the menu the programmer
// chooses from in the paper's methodical design process, and the plan
// search's branching (unlike the greedy Step, no match is filtered by its
// window delta).
func (e *Engine) Applicable(t term.Term) []Application {
	m := e.matcher()
	var out []Application
	for _, mt := range m.all(term.Stages(t)) {
		app := m.application(mt)
		if e.Params != nil {
			e.price(&app)
		}
		out = append(out, app)
	}
	return out
}
