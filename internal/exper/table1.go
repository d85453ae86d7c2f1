package exper

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/mpbackend"
	"repro/internal/rules"
	"repro/internal/term"
)

// RulePattern pairs a rule with a concrete program matching its left-hand
// side, used to measure the rule's effect on the virtual machine.
type RulePattern struct {
	// Rule is the rule name.
	Rule string
	// LHS is a program the rule's pattern matches in full.
	LHS core.Program
}

// Patterns returns one left-hand-side program per optimization rule, with
// representative operators satisfying each rule's condition (⊗ = *, ⊕ = +
// for the distributivity rules, ⊕ = + for the commutativity rules).
func Patterns() []RulePattern {
	return []RulePattern{
		{"SR2-Reduction", core.NewProgram().Scan(algebra.Mul).Reduce(algebra.Add)},
		{"SR-Reduction", core.NewProgram().Scan(algebra.Add).Reduce(algebra.Add)},
		{"SS2-Scan", core.NewProgram().Scan(algebra.Mul).Scan(algebra.Add)},
		{"SS-Scan", core.NewProgram().Scan(algebra.Add).Scan(algebra.Add)},
		{"BS-Comcast", core.NewProgram().Bcast().Scan(algebra.Add)},
		{"BSS2-Comcast", core.NewProgram().Bcast().Scan(algebra.Mul).Scan(algebra.Add)},
		{"BSS-Comcast", core.NewProgram().Bcast().Scan(algebra.Add).Scan(algebra.Add)},
		{"BR-Local", core.NewProgram().Bcast().Reduce(algebra.Add)},
		{"BSR2-Local", core.NewProgram().Bcast().Scan(algebra.Mul).Reduce(algebra.Add)},
		{"BSR-Local", core.NewProgram().Bcast().Scan(algebra.Add).Reduce(algebra.Add)},
		{"CR-AllLocal", core.NewProgram().Bcast().AllReduce(algebra.Add)},
	}
}

// Extensions returns one left-hand-side program per extension and sparse
// rule, as Patterns does the paper's — RSAG-AllReduce twice, its counts
// vectors pinning p = 4 and p = 6.
func Extensions() []RulePattern {
	counts4, counts6 := []int{2, 0, 1, 1}, []int{0, 3, 0, 1, 2, 0}
	seq := func(stages ...term.Term) core.Program { return core.FromTerm(term.Seq(stages)) }
	return []RulePattern{
		{"RB-AllReduce", core.NewProgram().Reduce(algebra.Add).Bcast()},
		{"AB-AllReduce", core.NewProgram().AllReduce(algebra.Add).Bcast()},
		{"BB-Bcast", core.NewProgram().Bcast().Bcast()},
		{"BM-Mobility", core.NewProgram().Bcast().Map(rules.IncFn)},
		{"MM-Local", core.NewProgram().Map(rules.IncFn).Map(rules.IncFn)},
		{"GS-Id", seq(term.Gather{}, term.Scatter{})},
		{"SG-Id", seq(term.Scatter{}, term.Gather{})},
		{"HH-Combine", seq(term.Halo{H: &term.Hood{Offsets: []int{1, 2}}}, term.Halo{H: &term.Hood{Offsets: []int{0, 3}}})},
		{"MH-Mobility", seq(term.Map{F: rules.IncFn}, term.Halo{H: &term.Hood{Offsets: []int{-1, 1}}})},
		{"RSAG-AllReduce", seq(term.ReduceScatterV{Op: algebra.Add, Counts: counts4}, term.AllGatherV{Counts: counts4})},
		{"RSAG-AllReduce", seq(term.ReduceScatterV{Op: algebra.Max, Counts: counts6}, term.AllGatherV{Counts: counts6})},
	}
}

// Sizes is the machine sizes the conformance sweeps run the pattern at:
// the one its counts vectors pin, else {4, 8} for a rule that needs
// p = 2^k, {4, 6, 8} for a Local rule that holds at every p, and {4, 6}
// for the rest.
func (pat RulePattern) Sizes() []int {
	for _, s := range term.Stages(pat.LHS.Term()) {
		if c, ok := term.CountsStage(s); ok {
			return []int{len(c)}
		}
	}
	r, _ := rules.ByName(pat.Rule)
	switch {
	case r.NeedsPow2():
		return []int{4, 8}
	case r.Class == "Local":
		return []int{4, 6, 8}
	}
	return []int{4, 6}
}

// RulePair returns the named Table 1 rule's left-hand side (its entry in
// Patterns) and the right-hand side the rule rewrites it to on p ranks —
// the two programs every table, figure, sweep and validation measures
// against each other.
func RulePair(rule string, p int) (lhs, rhs core.Program, err error) {
	for _, pat := range Patterns() {
		if pat.Rule == rule {
			opt, err := ApplyRule(rule, pat.LHS.Term(), p)
			return pat.LHS, core.FromTerm(opt), err
		}
	}
	return lhs, rhs, fmt.Errorf("exper: no pattern for %s", rule)
}

// Entry derives the named rule's row of Table 1 from its two sides as the
// rule engine produces them (on two ranks: the per-log-p coefficients do
// not depend on the machine size, and the Local rules need a power of
// two). Nothing stores the table; this is the one place it is assembled.
func Entry(rule string) (cost.Entry, error) {
	lhs, rhs, err := RulePair(rule, 2)
	if err != nil {
		return cost.Entry{}, err
	}
	return cost.EntryOf(rule, lhs.Term(), rhs.Term()), nil
}

// ApplyRule rewrites lhs on p ranks with an engine holding only the named
// rule, and expects exactly one application — the right-hand side of one
// rule, not whatever the full rule set would make of it. RulePair feeds
// it the Table 1 patterns; the conformance sweeps Extensions too.
func ApplyRule(rule string, lhs term.Term, p int) (term.Term, error) {
	r, ok := rules.ByName(rule)
	if !ok {
		return nil, fmt.Errorf("exper: no rule named %s", rule)
	}
	eng := rules.NewEngine()
	eng.Rules = []rules.Rule{r}
	eng.Env.P = p
	opt, apps := eng.Optimize(lhs)
	if len(apps) != 1 {
		return nil, fmt.Errorf("exper: rule %s did not apply to %s at p=%d", rule, lhs, p)
	}
	return opt, nil
}

// RuleSweep is one rule of the rule-grid walk: its two sides and their
// measured times at each swept block size.
type RuleSweep struct {
	// Rule and Class identify the rule; LHS and RHS are its two sides.
	Rule, Class string
	LHS, RHS    core.Program
	// Ms, LhsT and RhsT are the sweep: block sizes and both sides'
	// measured times (the Runner's unit).
	Ms         []int
	LhsT, RhsT []float64
	// At measures both sides afresh at any block size, with the sweep's
	// own discipline — the probe a crossover bisection calls.
	At func(m int) (lhs, rhs float64)
}

// SweepRules is the one walk of the (rule × m) grid: every Table 1 rule
// in only (nil: all of them) with its left- and right-hand side measured
// by run at each block size in ms, on mach.P ranks over the seed-11
// blocks, one discarded run first so first-run allocation noise stays
// out of both sides. The Local rules rewrite to f^(log p) and need a
// power-of-two machine; on any other they are skipped rather than
// measured as a rewrite that does not apply. The calibration's
// break-even validation (calib.Validate) and CrossoverFigure are views
// of its groups.
func SweepRules(run Runner, mach core.Machine, ms []int, only []string) ([]RuleSweep, error) {
	if run == nil {
		return nil, fmt.Errorf("exper: this host cannot run whole programs yet")
	}
	var out []RuleSweep
	for _, pat := range Patterns() {
		if only != nil && !slices.Contains(only, pat.Rule) {
			continue
		}
		r, _ := rules.ByName(pat.Rule) // an unknown rule is RulePair's error
		if r.NeedsPow2() && !coll.IsPow2(mach.P) {
			continue
		}
		lhs, rhs, err := RulePair(pat.Rule, mach.P)
		if err != nil {
			return nil, err
		}
		g := RuleSweep{Rule: pat.Rule, Class: r.Class, LHS: lhs, RHS: rhs, Ms: ms}
		g.At = func(m int) (float64, float64) {
			mm := mach
			mm.M = m
			in := mpbackend.SeededInputs(11, mach.P, m)
			run(lhs, mm, in)
			return run(lhs, mm, in), run(rhs, mm, in)
		}
		for _, m := range ms {
			l, r := g.At(m)
			g.LhsT, g.RhsT = append(g.LhsT, l), append(g.RhsT, r)
		}
		out = append(out, g)
	}
	return out, nil
}

// LastWin locates the largest block size at which the right-hand side
// still wins. The sweep gives the bracket — the last swept point where it
// measured faster and the next, where it did not — and bisection with
// fresh At measurements sharpens the boundary inside it: at most steps
// probes on noisy wall-clock times, to adjacency (exact, for the virtual
// machine's deterministic times) when steps is negative. It returns 0
// when the right-hand side never won and the largest swept size when it
// won there.
func (g RuleSweep) LastWin(steps int) int {
	last := -1
	for i := range g.Ms {
		if g.RhsT[i] < g.LhsT[i] {
			last = i
		}
	}
	if last < 0 {
		return 0
	}
	if last == len(g.Ms)-1 {
		return g.Ms[last]
	}
	lo, _ := cost.Bisect(g.Ms[last], g.Ms[last+1], steps, func(m int) bool {
		l, r := g.At(m)
		return r < l
	})
	return lo
}

// Table1Row is one row of the reproduced Table 1: the derived estimates
// (Entry) plus, when measured, the virtual-machine makespans of the
// rule's left- and right-hand sides.
type Table1Row struct {
	// Rule is the rule name.
	Rule string
	// Condition is the table's "Improved if" column.
	Condition string
	// PredBefore and PredAfter are the closed-form estimates.
	PredBefore, PredAfter float64
	// PredImproves is the condition's verdict at these parameters.
	PredImproves bool
	// MeasBefore and MeasAfter are virtual-machine makespans (zero when
	// not measured).
	MeasBefore, MeasAfter float64
	// MeasImproves reports whether the measured times improved.
	MeasImproves bool
	// Rewritten is the right-hand-side program.
	Rewritten string
}

// Table1 reproduces the paper's Table 1 at the given parameters: for every
// rule, the predicted before/after times and the improvement verdict. With
// measured = true it additionally applies each rule with the rewrite
// engine and measures both sides with run (p must then be a power of two,
// matching the butterfly model the predictions assume): RunVirtual fills
// the measured columns with virtual time units, NativeHost's Runner with
// wall-clock nanoseconds from the goroutine backend (the predictions stay
// the closed forms either way).
func Table1(mach core.Machine, measured bool, run Runner) []Table1Row {
	params := cost.Params{Ts: mach.Ts, Tw: mach.Tw, M: mach.M, P: mach.P}
	var out []Table1Row
	for _, pat := range Patterns() {
		entry, err := Entry(pat.Rule)
		if err != nil {
			panic(err.Error())
		}
		row := Table1Row{
			Rule:         pat.Rule,
			Condition:    entry.Condition,
			PredBefore:   entry.Before(params),
			PredAfter:    entry.After(params),
			PredImproves: entry.Improves(params),
		}
		if measured {
			lhs, rhs, err := RulePair(pat.Rule, mach.P)
			if err != nil {
				panic(err.Error())
			}
			in := mpbackend.SeededInputs(1, mach.P, mach.M)
			row.MeasBefore = run(lhs, mach, in)
			row.MeasAfter = run(rhs, mach, in)
			row.MeasImproves = row.MeasAfter < row.MeasBefore
			row.Rewritten = rhs.String()
		}
		out = append(out, row)
	}
	return out
}

// FormatTable1 renders rows as an aligned text table resembling the
// paper's Table 1.
func FormatTable1(rows []Table1Row, measured bool) string {
	var b strings.Builder
	if measured {
		fmt.Fprintf(&b, "%-14s %12s %12s %9s %12s %12s %9s  %s\n",
			"Rule", "pred before", "pred after", "pred imp", "meas before", "meas after", "meas imp", "condition")
		for _, r := range rows {
			fmt.Fprintf(&b, "%-14s %12.0f %12.0f %9v %12.0f %12.0f %9v  %s\n",
				r.Rule, r.PredBefore, r.PredAfter, r.PredImproves,
				r.MeasBefore, r.MeasAfter, r.MeasImproves, r.Condition)
		}
	} else {
		fmt.Fprintf(&b, "%-14s %14s %14s %9s  %s\n",
			"Rule", "time before", "time after", "improves", "condition")
		for _, r := range rows {
			fmt.Fprintf(&b, "%-14s %14.0f %14.0f %9v  %s\n",
				r.Rule, r.PredBefore, r.PredAfter, r.PredImproves, r.Condition)
		}
	}
	return b.String()
}

// CrossoverResult reports a predicted and a measured crossover block size
// for one rule: the largest m at which the rule still pays off at fixed
// ts, tw, p.
type CrossoverResult struct {
	Rule                string
	Predicted, Measured int
}

// MeasureCrossover locates the measured crossover block size of a rule by
// bisection on the measurement backend run (the rule's SweepRules group
// at m = 1 and maxM, then LastWin to adjacency), alongside the prediction
// from the closed forms. maxM bounds the search. Under RunVirtual the
// measured makespans are exact under the deterministic cost model, so
// bisection is sound as long as the improvement is monotone in m, which
// it is for every Table 1 rule. On the native Host the bisection runs on
// noisy wall-clock times; use enough repetitions that the improvement
// stays effectively monotone, and read the result as an estimate, not an
// exact bound.
func MeasureCrossover(ruleName string, mach core.Machine, maxM int, run Runner) CrossoverResult {
	groups, err := SweepRules(run, mach, []int{1, maxM}, []string{ruleName})
	if err != nil || len(groups) != 1 {
		panic(fmt.Sprintf("exper: cannot measure %s on %d ranks: %v", ruleName, mach.P, err))
	}
	entry, _ := Entry(ruleName) // SweepRules just applied the rule
	return CrossoverResult{
		Rule:      ruleName,
		Predicted: cost.Crossover(entry, cost.Params{Ts: mach.Ts, Tw: mach.Tw, P: mach.P}, maxM),
		Measured:  groups[0].LastWin(-1),
	}
}
