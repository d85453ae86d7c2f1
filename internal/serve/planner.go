package serve

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/coll/sel"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/rules"
	"repro/internal/term"
)

// Plan is a finished optimization: the canonical program, its optimized
// form, the derivation summary and the cost estimates — everything a
// response needs, plus the optimized term itself for execution. Plans are
// immutable once published and shared by every cache hit.
type Plan struct {
	// Canonical is the canonicalized input program (the cache-key half).
	Canonical string `json:"canonical"`
	// Optimized is the canonical rendering of the optimized program.
	Optimized string `json:"optimized"`
	// Applications summarizes the derivation, one rule application per
	// line ("RULE @pos: lhs  =>  rhs").
	Applications []string `json:"applications,omitempty"`
	// CostBefore and CostAfter are the §4 estimates at the plan's
	// machine parameters.
	CostBefore float64 `json:"cost_before"`
	CostAfter  float64 `json:"cost_after"`
	// Verified reports that every rule application and the end-to-end
	// rewriting were checked under the functional semantics: always true,
	// since the planner publishes no plan it has not verified.
	Verified bool `json:"verified"`
	// Strategy is the optimizer that produced the plan ("greedy" or
	// "search").
	Strategy Strategy `json:"strategy"`
	// Search carries the plan-search statistics for searched plans.
	Search *rules.SearchStats `json:"search,omitempty"`
	// Selection records the per-stage collective-algorithm choices when
	// the plan was computed with auto-selection (Request.Select): which
	// algorithm each eligible reduction runs, at which block size, with
	// the predicted cost against the butterfly baseline. Nil without
	// auto-selection.
	Selection []sel.Selection `json:"selection,omitempty"`

	// Term is the optimized program term, for executing the plan; not
	// serialized.
	Term term.Seq `json:"-"`

	// hit is the plan's answer as a cache hit, rendered by the first one.
	// The cell is allocated with the plan, so every copy the cache hands
	// out shares one rendering; nil on a plan the planner did not compute.
	hit *hitBody
}

// hitBody is Response{Plan, Cached: true, Machine} as writeJSON renders it.
// The machine is the one the plan was computed at; it is part of the cache
// key, so every hit of the plan's entry asked for exactly it.
type hitBody struct {
	mach core.Machine
	once sync.Once
	body []byte
	// length is body's Content-Length header, shared by every answer.
	length []string
}

// render returns the cell filled; safe for concurrent hits of one plan.
func (p Plan) render() *hitBody {
	h := p.hit
	h.once.Do(func() {
		var buf bytes.Buffer
		encodeJSON(&buf, Response{Plan: p, Cached: true, Machine: h.mach})
		h.body = bytes.Clone(buf.Bytes())
		h.length = []string{strconv.Itoa(len(h.body))}
	})
	return h
}

// Planner turns program sources into verified optimized plans, memoizing
// them in the sharded cache. Every computed plan passes the derivation
// check (every application as a rule instance, then source against plan
// end to end, see rules.Verifier) before it is published; the search
// strategy runs under rules.SearchConfig's default budgets. It is safe
// for concurrent use.
type Planner struct {
	// Symbols resolves operator and map-function names; NewPlanner
	// pre-loads the standard table plus the generator's inc.
	Symbols *lang.Symbols
	// VerifyCfg configures the verification runs.
	VerifyCfg rules.VerifyConfig
	// Cache memoizes key → plan.
	Cache *Cache

	engineRuns atomic.Int64
	// verifier remembers rule instances across plans: a miss evaluates
	// only what its derivation has that no earlier one had.
	verifier rules.Verifier
}

// NewPlanner returns a verifying planner over a cache of the given
// geometry.
func NewPlanner(cacheSize, cacheShards int) *Planner {
	syms := lang.NewSymbols()
	syms.DefineFn(rules.IncFn)
	syms.DefineFn(rules.IncTupFn)
	return &Planner{
		Symbols:   syms,
		VerifyCfg: rules.VerifyConfig{Seed: 11, Trials: 4, Sizes: []int{1, 2, 4, 8}, BlockWords: 3, RelTol: 1e-9},
		Cache:     NewCache(cacheSize, cacheShards),
	}
}

// MaxStages bounds the stages of a program the planner parses. A plan
// search prices, keys and rewrites the whole program at each of its up to
// rules.DefaultSearchNodes nodes, so a request's time grows with its stage
// count: at 256 stages a searched, selected miss of the costliest shape
// measured took at most 71 ms (docs/SERVING.md "How long a program may
// be").
const MaxStages = 256

// ParseProgram parses a surface-syntax program into its flat stage list. A
// program of more than MaxStages stages is refused, with a
// *lang.StagesError, before it is lexed.
func (pl *Planner) ParseProgram(src string) (term.Seq, error) {
	if strings.TrimSpace(src) == "" {
		return nil, fmt.Errorf("empty program")
	}
	return lang.ParseStages(src, pl.Symbols, MaxStages)
}

// KeyOpts builds the cache key for a canonical program at machine
// parameters: every client spelling of one program converges on the same
// key. The strategy and auto-selection qualify it: greedy unselected keys
// carry no suffix (cached plans from before either field keep working),
// searched plans get a distinct suffix so the two strategies never serve
// each other's plans, and selected plans — different estimates, a
// selection stanza — never share an entry with unselected plans of the
// same program.
func KeyOpts(canonical string, m core.Machine, strat Strategy, autoSel bool) string {
	// The qualifiers are rendered on the stack, so that the key itself is
	// the one allocation; AppendFloat's 'g', -1 prints what %g printed.
	var buf [128]byte
	q := append(buf[:0], "|ts="...)
	q = strconv.AppendFloat(q, m.Ts, 'g', -1, 64)
	q = append(q, "|tw="...)
	q = strconv.AppendFloat(q, m.Tw, 'g', -1, 64)
	q = append(q, "|p="...)
	q = strconv.AppendInt(q, int64(m.P), 10)
	q = append(q, "|m="...)
	q = strconv.AppendInt(q, int64(m.M), 10)
	if strat == StrategySearch {
		q = append(q, "|strategy=search"...)
	}
	if autoSel {
		q = append(q, "|select"...)
	}
	var k strings.Builder
	k.Grow(len(canonical) + len(q))
	k.WriteString(canonical)
	k.Write(q)
	return k.String()
}

// PlanTermOpts returns the optimized plan of an already-parsed term
// (ParseProgram) at machine m under the given strategy, from the cache
// when resident (cached = true) and by one engine run otherwise. With
// autoSel the optimizer scores rewrites with the portfolio model and the
// plan records the per-stage algorithm selections. Strategies and
// selected plans share the cache under qualified keys (see KeyOpts).
func (pl *Planner) PlanTermOpts(t term.Seq, m core.Machine, strat Strategy, autoSel bool) (Plan, bool, error) {
	canonical := rules.Canonical(t)
	return pl.Cache.GetOrCompute(KeyOpts(canonical, m, strat, autoSel), func() (Plan, error) {
		return pl.compute(t, canonical, m, strat, autoSel)
	})
}

// compute runs the selected optimizer and the semantic verifier — the
// single-flight body behind every cache miss.
func (pl *Planner) compute(t term.Seq, canonical string, m core.Machine, strat Strategy, autoSel bool) (Plan, error) {
	pl.engineRuns.Add(1)
	prog := core.FromTerm(t)
	opt, err := prog.OptimizeOpts(m, core.OptimizeOptions{
		Search:       strat == StrategySearch,
		Auto:         autoSel,
		Verifier:     &pl.verifier,
		VerifyConfig: pl.VerifyCfg,
	})
	if err != nil {
		return Plan{}, fmt.Errorf("verification failed: %w", err)
	}
	// FromTerm has flattened the optimized program already, and a
	// derivation without applications returned the program it was given.
	optTerm := opt.Program.Term().(term.Seq)
	optimized := canonical
	if len(opt.Applications) > 0 {
		optimized = rules.Canonical(optTerm)
	}
	plan := Plan{
		Canonical:  canonical,
		Optimized:  optimized,
		CostBefore: opt.EstimateBefore,
		CostAfter:  opt.EstimateAfter,
		Verified:   true,
		Strategy:   strat,
		Search:     opt.Search,
		Selection:  opt.Selection,
		Term:       optTerm,
		hit:        &hitBody{mach: m},
	}
	if !plan.estimatesFinite() {
		return Plan{}, &EstimateOverflowError{Machine: m}
	}
	for _, a := range opt.Applications {
		plan.Applications = append(plan.Applications, a.String())
	}
	return plan, nil
}

// estimatesFinite reports whether every estimate the plan carries is a
// number JSON can hold. CostBefore does not bound the others: at tw = 1e308
// and p = 1 it is 0 and a searched plan's greedy cost is NaN.
func (p Plan) estimatesFinite() bool {
	finite := func(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }
	ok := finite(p.CostBefore) && finite(p.CostAfter)
	if p.Search != nil {
		ok = ok && finite(p.Search.GreedyCost) && finite(p.Search.BestCost)
	}
	for _, s := range p.Selection {
		ok = ok && finite(s.Predicted) && finite(s.Butterfly)
	}
	return ok
}

// EstimateOverflowError refuses a plan with an estimate that is not a
// finite number at the machine parameters asked for: JSON has no infinity
// and no NaN, so the plan has no answer to send. It is the client's error,
// and never cached.
type EstimateOverflowError struct {
	Machine core.Machine
}

func (e *EstimateOverflowError) Error() string {
	m := e.Machine
	return fmt.Sprintf("the cost estimate overflows at ts=%g tw=%g p=%d m=%d", m.Ts, m.Tw, m.P, m.M)
}

// EngineRuns is the number of engine invocations so far — every cache
// miss costs exactly one; the single-flight tests pin this.
func (pl *Planner) EngineRuns() int64 { return pl.engineRuns.Load() }

// VerifyStats reports what verifying the computed plans took.
func (pl *Planner) VerifyStats() rules.VerifyStats { return pl.verifier.Stats() }
