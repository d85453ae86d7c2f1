package rules

import (
	"fmt"

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

func (a Application) String() string {
	return fmt.Sprintf("%s @%d: %s  =>  %s", a.Rule, a.Pos, term.Seq(a.Before), term.Seq(a.After))
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

func (e *Engine) rules() []Rule {
	if e.Rules != nil {
		return e.Rules
	}
	return defaultRules
}

// nextMatch is the one rule-match loop: it scans (position × rule) pairs
// from cursor from onward — stages left to right, rs in priority order at
// each position, pair k being position k/len(rs) and rule k%len(rs) — and
// returns the first whose pattern and conditions match, as an Application
// priced by e.score when the engine is cost-guided, with the pair's
// cursor; resume at cursor+1. Step, Applicable, the plan search and
// (through Applicable) core.Derivation all enumerate with it, so a match
// is recorded and priced the same way whoever asks.
func (e *Engine) nextMatch(stages []term.Term, rs []Rule, from int) (Application, int, bool) {
	for k := from; k < len(stages)*len(rs); k++ {
		i, r := k/len(rs), &rs[k%len(rs)]
		if i+r.Window > len(stages) {
			continue
		}
		window := stages[i : i+r.Window]
		repl, ok := r.Try(window, e.Env)
		if !ok {
			continue
		}
		app := Application{
			Rule:   r.Name,
			Pos:    i,
			Before: append([]term.Term(nil), window...),
			After:  repl,
		}
		if e.Params != nil {
			app.CostBefore = e.score(term.Seq(window), *e.Params)
			app.CostAfter = e.score(term.Seq(repl), *e.Params)
		}
		return app, k, true
	}
	return Application{}, 0, false
}

// Rewrite returns the flattened stage list (term.Stages) with the
// application's matched window replaced by its replacement.
func (a Application) Rewrite(stages []term.Term) term.Term {
	out := make([]term.Term, 0, len(stages)-len(a.Before)+len(a.After))
	out = append(out, stages[:a.Pos]...)
	out = append(out, a.After...)
	out = append(out, stages[a.Pos+len(a.Before):]...)
	return term.Seq(out)
}

// Step performs the first applicable rule application, scanning stages
// left to right and trying rules in priority order at each position; a
// cost-guided engine skips matches whose replacement does not price
// strictly lower than the window (or, for a CostNeutral rule, not
// higher). It returns the rewritten term and the application, or ok =
// false if no rule applies.
func (e *Engine) Step(t term.Term) (term.Term, Application, bool) {
	stages, rs := term.Stages(t), e.rules()
	for app, k, ok := e.nextMatch(stages, rs, 0); ok; app, k, ok = e.nextMatch(stages, rs, k+1) {
		if e.Params != nil && app.CostAfter >= app.CostBefore &&
			!(rs[k%len(rs)].CostNeutral && app.CostAfter == app.CostBefore) {
			continue
		}
		return app.Rewrite(stages), app, true
	}
	return t, Application{}, false
}

// Optimize applies Step until no rule applies, returning the final term
// and the applications performed in order. Termination is guaranteed:
// every rule strictly decreases the number of collective operations.
func (e *Engine) Optimize(t term.Term) (term.Term, []Application) {
	var apps []Application
	for {
		next, app, ok := e.Step(t)
		if !ok {
			return t, apps
		}
		t = next
		apps = append(apps, app)
	}
}

// Applicable lists, without rewriting, every (position, rule) pair whose
// pattern and conditions match in the term — the menu the programmer
// chooses from in the paper's methodical design process, and the plan
// search's branching (unlike the greedy Step, no match is filtered by its
// window delta).
func (e *Engine) Applicable(t term.Term) []Application {
	return e.applicable(term.Stages(t))
}

func (e *Engine) applicable(stages []term.Term) []Application {
	rs := e.rules()
	var out []Application
	for app, k, ok := e.nextMatch(stages, rs, 0); ok; app, k, ok = e.nextMatch(stages, rs, k+1) {
		out = append(out, app)
	}
	return out
}
