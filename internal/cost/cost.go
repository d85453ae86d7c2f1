// Package cost implements the performance-estimate calculus of §4 of the
// paper: the butterfly-implementation cost formulas for the collective
// operations (equations (15)–(17)), a general estimator for arbitrary
// terms of the formal framework, and the closed-form Table 1 — for every
// optimization rule, the time before, the time after, and the
// machine-parameter condition under which applying the rule improves the
// target performance.
package cost

import (
	"math"

	"repro/internal/term"
)

// Params are the cost-model parameters of §4.1: the machine's start-up
// time Ts and per-word transfer time Tw (in units of one computation
// operation), the per-processor block size M in words, and the number of
// processors P.
type Params struct {
	// Ts is the message start-up time.
	Ts float64 `json:"ts"`
	// Tw is the per-word transfer time.
	Tw float64 `json:"tw"`
	// M is the block size in words.
	M int `json:"m"`
	// P is the number of processors.
	P int `json:"p"`
}

// LogP is the number of butterfly phases, ceil(log2 P) — the log p factor
// of every estimate. The paper treats p as a power of two, for which this
// is exactly log2 p.
func (p Params) LogP() float64 {
	if p.P <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(p.P)))
}

// m returns the block size as a float.
func (p Params) m() float64 { return float64(p.M) }

// Bcast is equation (15): log p · (ts + m·tw).
func Bcast(p Params) float64 {
	return p.LogP() * (p.Ts + p.m()*p.Tw)
}

// Reduce is equation (16): log p · (ts + m·(tw+1)) for a base operator.
func Reduce(p Params) float64 {
	return p.LogP() * (p.Ts + p.m()*(p.Tw+1))
}

// Scan is equation (17): log p · (ts + m·(tw+2)) for a base operator.
func Scan(p Params) float64 {
	return p.LogP() * (p.Ts + p.m()*(p.Tw+2))
}

// Pricing is the policy the stage walk charges stages under. It is a
// plain value, so the three estimators below share one traversal without
// allocating: the plan search makes thousands of these calls per plan.
type Pricing uint8

// The pricing policies.
const (
	// PriceButterfly charges every stage its §4.1 butterfly line — the
	// policy of OfTerm.
	PriceButterfly Pricing = iota
	// PricePortfolio charges a reduction eligible for algorithm
	// selection (Selectable) the cheapest applicable portfolio line and
	// every other stage its butterfly line — the policy of OfTermAuto.
	PricePortfolio
	// PriceFloor charges only the stages no rule can remove — the policy
	// of Floor.
	PriceFloor
)

// Step is what the stage walk reports for one stage.
type Step struct {
	// Index is the stage's position in the flattened stage list — the
	// numbering the executor (core.RunStages) runs stages under.
	Index int
	// Stage is the stage itself.
	Stage term.Term
	// In and Out are the per-processor block sizes before and after it.
	In, Out float64
	// Cost is the stage's price under the walk's policy.
	Cost float64
}

// Walk is the one block-size-tracking traversal behind every estimate:
// it prices the flattened stages of t in order under the given policy,
// calls visit (when non-nil) with each stage's Step, and returns the
// total.
//
// The per-processor block size is tracked through the redistribution
// stages: a gather leaves the root with a p·m-word block and a scatter
// hands each processor a 1/p share of the root's block, so the stages in
// between are charged at the block size they actually see rather than at
// the global Params.M. For programs without redistribution (all of the
// paper's rules) the estimate is unchanged.
func Walk(t term.Term, p Params, pr Pricing, visit func(Step)) float64 {
	total, b, logp := 0.0, p.m(), p.LogP()
	for i, stage := range term.Stages(t) {
		c, out := ofStage(stage, p, logp, b)
		switch pr {
		case PricePortfolio:
			if collective, at, ok := Selectable(stage, p, b); ok {
				_, c = BestAlgo(collective, at, true)
			}
		case PriceFloor:
			if !survivesRewriting(stage) {
				c = 0
			}
		}
		total += c
		if visit != nil {
			visit(Step{Index: i, Stage: stage, In: b, Out: out, Cost: c})
		}
		b = out
	}
	return total
}

// OfTerm estimates the run time of an arbitrary term under the butterfly
// implementation model. It generalizes equations (15)–(17) to the derived
// tuple operators: an operator of arity a and per-element cost c makes a
// reduction phase cost ts + a·m·tw + c·m and a scan phase
// ts + a·m·tw + 2·c·m. Local stages cost their per-element count times m,
// without the log p factor; duplication and projection are free (§4.2).
// Block sizes are tracked through the redistribution stages (see Walk).
func OfTerm(t term.Term, p Params) float64 { return Walk(t, p, PriceButterfly, nil) }

// ofStage estimates one stage at per-processor block size b (logp is
// p.LogP(), computed once per walk) and returns its butterfly cost
// together with the block size downstream stages see.
func ofStage(t term.Term, p Params, logp, b float64) (float64, float64) {
	switch s := t.(type) {
	case term.Map:
		return float64(s.F.Cost) * b, b
	case term.MapIdx:
		// The worst processor (rank p-1, all binary digits one for the
		// repeat schema) bounds the makespan.
		if s.F.Charge == nil {
			return 0, b
		}
		return s.F.Charge(p.P-1, int(b)), b
	case term.Bcast:
		return logp * (p.Ts + b*p.Tw), b
	case term.Gather:
		// Binomial tree shipping half the remaining data per phase:
		// log p start-ups and about p·b words through the root's link;
		// the root ends up holding all p blocks.
		return logp*p.Ts + float64(p.P)*b*p.Tw, b * float64(p.P)
	case term.Scatter:
		// The mirror image: the root's b-word block leaves through its
		// link and every processor keeps a 1/p share.
		return logp*p.Ts + b*p.Tw, b / float64(p.P)
	case term.Scan:
		a := float64(s.Op.Arity)
		c := float64(s.Op.Cost)
		return logp * (p.Ts + a*b*p.Tw + 2*c*b), b
	case term.ScanBal:
		ship := float64(s.Op.ShipWidth)
		c := float64(s.Op.CostHi)
		return logp * (p.Ts + ship*b*p.Tw + c*b), b
	case term.Reduce:
		a := float64(s.Op.Arity)
		c := float64(s.Op.Cost)
		return logp * (p.Ts + a*b*p.Tw + c*b), b
	case term.Comcast:
		if s.CostOptimal {
			// log p rounds, each shipping the whole working tuple and
			// computing both e and o on the critical path.
			a := float64(s.Ops.Arity)
			eo := float64(s.Ops.CostE + s.Ops.CostO)
			return logp * (p.Ts + a*b*p.Tw + eo*b), b
		}
		// bcast + local repeat; the worst processor applies o each phase.
		return logp*(p.Ts+b*p.Tw) + logp*float64(s.Ops.CostO)*b, b
	case term.Iter:
		return logp * float64(s.Op.Cost) * b, b
	case term.Halo:
		// k point-to-point transfers, output a width-|H| tuple of blocks.
		return HaloLine(s.H, p, b), b * float64(haloWidth(s.H))
	case term.AllGatherV:
		// The counts pin p and the total; downstream stages see the flat
		// T-word concatenation.
		return AllGatherVLine(s.Counts, p), float64(term.SumCounts(s.Counts))
	case term.ReduceScatterV:
		// The widest slice bounds the makespan; downstream stages see it.
		return ReduceScatterVLine(s.Op.Cost, s.Counts, p), float64(maxCount(s.Counts))
	}
	return 0, b
}

// Floor is an admissible lower bound on the cost of every term reachable
// from t by the optimization rules, used to prune the plan search
// (rules.SearchOptimize): the cost of the stages that survive every
// derivation (survivesRewriting), charged at their tracked block sizes.
func Floor(t term.Term, p Params) float64 { return Walk(t, p, PriceFloor, nil) }

// survivesRewriting reports whether a stage contributes to Floor. The
// rules rewrite only scans, unbalanced reductions, broadcasts, maps and
// gather/scatter pairs; the derived stages they produce — map#, iter,
// scan_balanced, balanced reductions, comcast — match no rule pattern,
// and local work is never discarded (maps are only moved or fused,
// preserving their total cost). Everything else is removable and
// contributes nothing, though it still reshapes the block for the stages
// after it: gather;scatter round trips (GS-Id/SG-Id) are block-neutral,
// combined halos (HH-Combine) multiply the fan-ins, and RSAG-AllReduce
// only fires when the counts match, leaving the downstream block at T.
func survivesRewriting(stage term.Term) bool {
	switch s := stage.(type) {
	case term.Map, term.MapIdx, term.Iter, term.ScanBal, term.Comcast:
		return true
	case term.Reduce:
		return s.Balanced
	}
	return false
}

// lin is a linear form a·ts + b·m·tw + c·m (all per log p), the shape of
// every Table 1 entry.
type lin struct {
	ts, mtw, m float64
}

func (l lin) eval(p Params) float64 {
	return p.LogP() * (l.ts*p.Ts + l.mtw*p.m()*p.Tw + l.m*p.m())
}

// Entry is one row of Table 1: the rule name, the estimated times before
// and after the rewrite, and the improvement condition.
type Entry struct {
	// Rule is the rule name as in §3.
	Rule string
	// Before and After give the estimated run times (including the
	// log p factor, unlike the table's headings).
	Before func(Params) float64
	// After is the estimated run time of the right-hand side.
	After func(Params) float64
	// Improves reports whether the rule improves performance at the
	// given parameters (the table's "Improved if" column).
	Improves func(Params) bool
	// Condition is the human-readable improvement condition.
	Condition string
}

// entry builds an Entry from the two linear forms and condition.
func entry(rule string, before, after lin, cond func(Params) bool, condStr string) Entry {
	return Entry{
		Rule:      rule,
		Before:    before.eval,
		After:     after.eval,
		Improves:  cond,
		Condition: condStr,
	}
}

func always(Params) bool { return true }

// Table1 returns the closed-form performance estimates of Table 1, one
// entry per optimization rule, in the paper's order. CR-AllLocal, which
// the paper defines in §3.5 but leaves out of the table, is appended with
// the same accounting.
func Table1() []Entry {
	return []Entry{
		entry("SR2-Reduction",
			lin{2, 2, 3}, lin{1, 2, 3},
			always, "always"),
		entry("SR-Reduction",
			lin{2, 2, 3}, lin{1, 2, 4},
			func(p Params) bool { return p.Ts > p.m() },
			"ts > m"),
		entry("SS2-Scan",
			lin{2, 2, 4}, lin{1, 2, 6},
			func(p Params) bool { return p.Ts > 2*p.m() },
			"ts > 2m"),
		entry("SS-Scan",
			lin{2, 2, 4}, lin{1, 3, 8},
			func(p Params) bool { return p.Ts > p.m()*(p.Tw+4) },
			"ts > m(tw+4)"),
		entry("BS-Comcast",
			lin{2, 2, 2}, lin{1, 1, 2},
			always, "always"),
		entry("BSS2-Comcast",
			lin{3, 3, 4}, lin{1, 1, 5},
			func(p Params) bool { return p.Tw+p.Ts/p.m() > 0.5 },
			"tw + ts/m > 1/2"),
		entry("BSS-Comcast",
			lin{3, 3, 4}, lin{1, 1, 8},
			func(p Params) bool { return p.Tw+p.Ts/p.m() > 2 },
			"tw + ts/m > 2"),
		entry("BR-Local",
			lin{2, 2, 1}, lin{0, 0, 1},
			always, "always"),
		entry("BSR2-Local",
			lin{3, 3, 3}, lin{0, 0, 3},
			always, "always"),
		entry("BSR-Local",
			lin{3, 3, 3}, lin{0, 0, 4},
			func(p Params) bool { return p.Tw+p.Ts/p.m() >= 1.0/3 },
			"tw + ts/m >= 1/3"),
		entry("CR-AllLocal",
			lin{2, 2, 1}, lin{1, 1, 1},
			always, "always"),
	}
}

// Lookup returns the Table 1 entry for the named rule.
func Lookup(rule string) (Entry, bool) {
	for _, e := range Table1() {
		if e.Rule == rule {
			return e, true
		}
	}
	return Entry{}, false
}

// Bisect halves the bracket [lo, hi] of a predicate that is monotone in
// the block size — holds(lo) is true, holds(hi) is false — and returns
// the narrowed bracket: lo is the largest m found to hold, hi the
// smallest found not to. steps caps the number of probes (the noisy
// wall-clock searches stop at sweep-relative resolution); a negative
// steps runs until lo and hi are adjacent, which is exact. It is the one
// halving loop under every crossover search of cost, exper and calib.
func Bisect(lo, hi, steps int, holds func(m int) bool) (int, int) {
	for ; steps != 0 && hi-lo > 1; steps-- {
		if mid := (lo + hi) / 2; holds(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, hi
}

// Crossover finds, by bisection over the block size m at fixed ts, tw and
// p, the largest m (within [1, hi]) at which the rule still improves
// performance according to the closed forms. It returns hi if the rule
// improves everywhere and 0 if nowhere. Used to locate the predicted
// crossover points such as SS2-Scan's m = ts/2.
func Crossover(e Entry, base Params, hi int) int {
	improves := func(m int) bool {
		p := base
		p.M = m
		return e.Improves(p)
	}
	if improves(hi) {
		return hi
	}
	if !improves(1) {
		return 0
	}
	lo, _ := Bisect(1, hi, -1, improves)
	return lo
}
