package main

import (
	"fmt"
	"math/rand"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exper"
	"repro/internal/mpbackend"
	"repro/internal/rules"
	"repro/internal/term"
)

// modelTs and modelTw are the machine parameters every plan and every
// model cost in the benchmark is computed at — the daemon's defaults.
const (
	modelTs = 1000
	modelTw = 1
)

// pair is one corpus entry: a rule's left-hand side, the program the rule
// rewrites it to, the inputs both run on, and the reference outputs from
// the functional semantics (term.Eval), which shares no code with the
// executors under test.
type pair struct {
	rule     string
	lhs, rhs core.Program
	in       []algebra.Value
	// ref[0] is the reference of lhs, ref[1] of rhs.
	ref [2][]algebra.Value
}

// program returns the side's program: 0 = lhs, 1 = rhs.
func (c *pair) program(side int) core.Program {
	if side == 0 {
		return c.lhs
	}
	return c.rhs
}

var sideNames = [2]string{"lhs", "rhs"}

// raggedCounts splits m words over p ranks unevenly, with empty blocks, so
// the irregular collectives see the shapes they exist for. Σ counts = m.
func raggedCounts(p, m int) []int {
	weights := []int{3, 0, 1, 2, 0, 4, 1, 5}
	total := 0
	for i := 0; i < p; i++ {
		total += weights[i%len(weights)]
	}
	counts := make([]int, p)
	sum, last := 0, 0
	for i := range counts {
		counts[i] = m * weights[i%len(weights)] / total
		sum += counts[i]
		if counts[i] > 0 {
			last = i
		}
	}
	counts[last] += m - sum
	return counts
}

func ringHalo() term.Halo { return term.Halo{H: &term.Hood{Offsets: []int{-1, 1}}} }

// applyOnce rewrites lhs with exactly one application of the named rule,
// as exper.NativeFusion does: Table 1's two sides, whatever the planner
// would decide.
func applyOnce(rule string, lhs term.Term, p int) (term.Term, error) {
	var r rules.Rule
	for _, cand := range append(rules.All(), rules.Sparse()...) {
		if cand.Name == rule {
			r = cand
		}
	}
	if r.Name == "" {
		return nil, fmt.Errorf("no rule named %s", rule)
	}
	eng := rules.NewEngine()
	eng.Rules = []rules.Rule{r}
	eng.Env.P = p
	opt, apps := eng.Optimize(lhs)
	if len(apps) != 1 {
		return nil, fmt.Errorf("rule %s applied %d times to %s at p=%d, want once", rule, len(apps), term.Compose(lhs), p)
	}
	return opt, nil
}

// buildCorpus builds the 14 pairs the exec workloads share: the 11 paper
// rules on exper.Patterns, and the three sparse rules. Values come from
// seed; the programs do not.
func buildCorpus(seed int64, p, m int) ([]pair, error) {
	var out []pair
	add := func(rule string, lhs, rhs term.Term, in []algebra.Value) {
		c := pair{rule: rule, lhs: core.FromTerm(lhs), rhs: core.FromTerm(rhs), in: in}
		c.ref[0] = term.Eval(c.lhs.Term(), in)
		c.ref[1] = term.Eval(c.rhs.Term(), in)
		out = append(out, c)
	}
	dense := mpbackend.SeededInputs(seed, p, m)
	for _, pat := range exper.Patterns() {
		rhs, err := applyOnce(pat.Rule, pat.LHS.Term(), p)
		if err != nil {
			return nil, err
		}
		add(pat.Rule, pat.LHS.Term(), rhs, dense)
	}

	hh := term.Seq{ringHalo(), ringHalo()}
	rhs, err := applyOnce("HH-Combine", hh, p)
	if err != nil {
		return nil, err
	}
	add("HH-Combine", hh, rhs, dense)

	counts := raggedCounts(p, m)
	rsag := term.Seq{term.ReduceScatterV{Op: algebra.Add, Counts: counts}, term.AllGatherV{Counts: counts}}
	if rhs, err = applyOnce("RSAG-AllReduce", rsag, p); err != nil {
		return nil, err
	}
	add("RSAG-AllReduce", rsag, rhs, rules.SparseInputs(rsag, rand.New(rand.NewSource(seed)), p))

	// The committed greedy trap: only the plan search moves the map out
	// of the way and combines the halos.
	trap := term.Seq{ringHalo(), term.Map{F: rules.IncTupFn}, ringHalo()}
	plan, apps, _ := rules.NewCostGuidedEngine(cost.Params{Ts: modelTs, Tw: modelTw, P: p, M: m}).SearchOptimize(trap, rules.SearchConfig{})
	if len(apps) == 0 {
		return nil, fmt.Errorf("the plan search left the MH-Mobility trap unchanged at p=%d m=%d", p, m)
	}
	add("MH-Mobility", trap, plan, dense)
	return out, nil
}

// modelCostRatio is Σ model cost of the fused programs over Σ model cost
// of their specs: what the model says the whole corpus gains.
func modelCostRatio(corpus []pair, p, m int) float64 {
	params := cost.Params{Ts: modelTs, Tw: modelTw, P: p, M: m}
	var before, after float64
	for i := range corpus {
		before += cost.OfTerm(corpus[i].lhs.Term(), params)
		after += cost.OfTerm(corpus[i].rhs.Term(), params)
	}
	return after / before
}
