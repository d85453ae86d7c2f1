// Package cost implements the performance-estimate calculus of §4 of the
// paper. Its one idea is that a price is a count: every program costs
// a·ts + b·m·tw + c·m, and a Line holds the a, b·m and c·m — message
// start-ups, words shipped, elementary operations — before any machine
// parameter is put in. Everything else here is a view of a Line: the
// butterfly collectives of equations (15)–(17), the stage walk that
// estimates arbitrary terms (Walk, OfTerm, OfTermAuto, Floor), the
// algorithm portfolio and the sparse collectives, and Table 1, which is
// not stored but derived — for every optimization rule, the Lines of its
// two sides and the machine-parameter condition under which their
// difference is positive (SymbolicOfTerm, DeriveCondition, EntryOf).
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

// BcastLine, ReduceLine and ScanLine are equations (15)–(17) as counts,
// in two columns. path is the equation: log p rounds of one m-word
// message, with 0, 1 and 2 elementary operations per word for a base
// operator. work is what all ranks do together: a binomial tree's p − 1
// messages (and one combine per message, for the reduction); a butterfly
// scan's p messages per round but p/2 in the last, where only the higher
// partner reads, and 1.5·p·log p combines charged: the running total
// everywhere and the prefix on half the ranks.
func BcastLine(p Params) (path, work Line) { return collective(p, 0, float64(p.P-1), 0) }

// ReduceLine is equation (16): log p · (ts + m·(tw+1)).
func ReduceLine(p Params) (path, work Line) {
	return collective(p, 1, float64(p.P-1), float64(p.P-1))
}

// ScanLine is equation (17): log p · (ts + m·(tw+2)).
func ScanLine(p Params) (path, work Line) {
	n, logp := float64(p.P), p.LogP()
	return collective(p, 2, n*max(logp-0.5, 0), 1.5*n*logp)
}

// collective is a butterfly collective on m-word blocks in both columns,
// given its operations per word on the path and its totals per word.
func collective(p Params, opsPerWord, msgs, combines float64) (path, work Line) {
	m := p.m()
	return Line{p.LogP(), 1, m, opsPerWord * m}, Line{1, msgs, msgs * m, combines * m}
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
	// selection (Selectable) the cheapest portfolio line its operator
	// admits (BestAlgo) and every other stage its butterfly line — the
	// policy of OfTermAuto.
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
	// Line is the stage's butterfly line and Cost its price under the
	// walk's policy — Line.At, unless the policy overrode it.
	Line Line
	Cost float64
}

// Walk is the one block-size-tracking traversal behind every estimate:
// it prices the flattened stages of s in order under the given policy,
// calls visit (when non-nil) with each stage's Step, and returns the
// total. A stage list is priced without being boxed into a term.
//
// The per-processor block size is tracked through the redistribution
// stages: a gather leaves the root with a p·m-word block and a scatter
// hands each processor a 1/p share of the root's block, so the stages in
// between are charged at the block size they actually see rather than at
// the global Params.M. For programs without redistribution (all of the
// paper's rules) the estimate is unchanged.
func Walk(s term.Seq, p Params, pr Pricing, visit func(Step)) float64 {
	total, b, logp := 0.0, p.m(), p.LogP()
	for i, stage := range s.Flat() {
		line, out := stageLine(stage, p, logp, b)
		c := line.At(p)
		switch pr {
		case PricePortfolio:
			if collective, op, at, ok := Selectable(stage, p, b); ok {
				_, c = BestAlgo(collective, at, op)
			}
		case PriceFloor:
			if !survivesRewriting(stage) {
				c = 0
			}
		}
		total += c
		if visit != nil {
			visit(Step{Index: i, Stage: stage, In: b, Out: out, Line: line, Cost: c})
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
func OfTerm(t term.Term, p Params) float64 { return Walk(term.Stages(t), p, PriceButterfly, nil) }

// stageLine is the one place a stage is priced: its butterfly Line at
// per-processor block size b (logp is p.LogP(), computed once per walk)
// together with the block size downstream stages see.
func stageLine(t term.Term, p Params, logp, b float64) (Line, float64) {
	switch s := t.(type) {
	case term.Map:
		return local(float64(s.F.Cost) * b), b
	case term.MapIdx:
		// The worst processor (rank p-1, all binary digits one for the
		// repeat schema) bounds the makespan.
		if s.F.Charge == nil {
			return Line{}, b
		}
		return local(s.F.Charge(p.P-1, int(b))), b
	case term.Bcast:
		return Line{logp, 1, b, 0}, b
	case term.Gather:
		// Binomial tree shipping half the remaining data per phase:
		// log p start-ups and about p·b words through the root's link;
		// the root ends up holding all p blocks.
		return Line{1, logp, float64(p.P) * b, 0}, b * float64(p.P)
	case term.Scatter:
		// The mirror image: the root's b-word block leaves through its
		// link and every processor keeps a 1/p share.
		return Line{1, logp, b, 0}, b / float64(p.P)
	case term.Scan:
		a := float64(s.Op.Arity)
		c := float64(s.Op.Cost)
		return Line{logp, 1, a * b, 2 * c * b}, b
	case term.ScanBal:
		ship := float64(s.Op.ShipWidth)
		c := float64(s.Op.CostHi)
		return Line{logp, 1, ship * b, c * b}, b
	case term.Reduce:
		a := float64(s.Op.Arity)
		c := float64(s.Op.Cost)
		return Line{logp, 1, a * b, c * b}, b
	case term.Comcast:
		if s.CostOptimal {
			// log p rounds, each shipping the whole working tuple and
			// computing both e and o on the critical path.
			a := float64(s.Ops.Arity)
			eo := float64(s.Ops.CostE + s.Ops.CostO)
			return Line{logp, 1, a * b, eo * b}, b
		}
		// bcast + local repeat; the worst processor applies o each phase.
		return Line{logp, 1, b, float64(s.Ops.CostO) * b}, b
	case term.Iter:
		return local(logp * float64(s.Op.Cost) * b), b
	case term.Halo:
		// k point-to-point transfers, output a width-|H| tuple of blocks.
		return HaloLine(s.H, p.P, b), b * float64(s.H.Width())
	case term.AllGatherV:
		// The counts pin p and the total; downstream stages see the flat
		// T-word concatenation.
		return AllGatherVLine(s.Counts), float64(term.SumCounts(s.Counts))
	case term.ReduceScatterV:
		// The widest slice bounds the makespan; downstream stages see it.
		return ReduceScatterVLine(s.Op.Cost, s.Counts), float64(maxCount(s.Counts))
	}
	return Line{}, b
}

// Floor is an admissible lower bound on the cost of every term reachable
// from t by the optimization rules, used to prune the plan search
// (rules.SearchOptimize): the cost of the stages that survive every
// derivation (survivesRewriting), charged at their tracked block sizes.
func Floor(t term.Term, p Params) float64 { return Walk(term.Stages(t), p, PriceFloor, nil) }

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
// performance according to its derived condition. It returns hi if the rule
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
