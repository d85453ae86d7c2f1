package cost

import (
	"math"

	"repro/internal/algebra"
	"repro/internal/term"
)

// This file extends the §4.1 calculus from "the butterfly cost" to a
// portfolio of collective algorithms. The paper prices every collective on
// one topology; the related work (Träff 2024; Lowery & Langou; the
// poplibs ring programs) shows no single algorithm wins across the whole
// (p, m) plane. Each Algo below carries its own closed-form cost line in
// the same a·ts + b·m·tw + c·m shape as Table 1, so the calibrated
// parameters that validate the rules also rank the algorithms — the
// selection layer (package coll/sel) simply takes the argmin.

// Algo names a collective-algorithm implementation.
type Algo string

// The algorithm portfolio.
const (
	// AlgoButterfly is the §4.1 butterfly/binomial implementation the
	// paper's estimates assume: log p phases of one transfer and one
	// combine. The baseline every alternative is measured against.
	AlgoButterfly Algo = "butterfly"
	// AlgoRabenseifner is the reduce-scatter + allgather all-reduction
	// (recursive halving then recursive doubling): 2·log p start-ups but
	// only ~2m words and ~m combines per member — the classic large-block
	// all-reduce for power-of-two-ish groups (Rabenseifner; Träff 2024).
	AlgoRabenseifner Algo = "rabenseifner"
	// AlgoRing is the unidirectional ring reduce-scatter + allgather:
	// 2(p−1) start-ups, ~2m words — bandwidth-optimal, start-up-heavy.
	AlgoRing Algo = "ring"
	// AlgoRingBi is the bidirectional ring (as in the poplibs ring
	// program): both ring directions carry half the block concurrently,
	// halving the per-step transfer volume on full-duplex links.
	AlgoRingBi Algo = "ring-bi"
	// AlgoPipeline is the chain-pipelined segmented reduction with the
	// Lowery–Langou segment-count choice: k segments stream down a rank
	// chain, overlapping transfer and combine across segments.
	AlgoPipeline Algo = "pipeline"
)

// Collective names for the selection layer.
const (
	CollAllReduce = "allreduce"
	CollReduce    = "reduce"
)

// Algos lists the candidate algorithms for a collective, baseline first.
// Unknown collectives have only the butterfly.
func Algos(collective string) []Algo {
	switch collective {
	case CollAllReduce:
		return []Algo{AlgoButterfly, AlgoRabenseifner, AlgoRing, AlgoRingBi}
	case CollReduce:
		return []Algo{AlgoButterfly, AlgoPipeline}
	}
	return []Algo{AlgoButterfly}
}

// PipelineSegments is the Lowery–Langou segment-count choice for the
// chain-pipelined reduction: the pipeline runs p−2+k slots of
// ts + (m/k)·(tw+1) each, and the k minimizing the product is
// k* = sqrt((p−2)·m·(tw+1)/ts) — more segments when start-ups are cheap
// relative to the per-word work, fewer when they are dear. The integer
// neighbor with the lower cost line is returned, clamped to [1, m].
func PipelineSegments(p Params) int {
	if p.P < 2 || p.M < 1 {
		return 1
	}
	if p.Ts <= 0 {
		return p.M // free start-ups: segment all the way down
	}
	kStar := math.Sqrt(float64(p.P-2) * p.m() * (p.Tw + 1) / p.Ts)
	lo := int(math.Floor(kStar))
	best, bestCost := 1, math.Inf(1)
	for _, k := range []int{lo, lo + 1} {
		if k < 1 {
			k = 1
		}
		if k > p.M {
			k = p.M
		}
		if c := pipelineLine(p, k).At(p); c < bestCost {
			best, bestCost = k, c
		}
	}
	return best
}

// pipelineLine is the chain-pipeline line at k segments: p−2+k slots of
// one message of m/k words, each combined once. The slots are counted in
// float64, where p−2+k cannot wrap.
func pipelineLine(p Params, k int) Line {
	seg := p.m() / float64(k)
	return Line{float64(p.P-2) + float64(k), 1, seg, seg}
}

// Applicable reports whether the algorithm can run the collective at the
// given group and block size, independent of the operator. The chunked
// algorithms (rabenseifner, ring, ring-bi) split the block across the
// group and need at least one word per member; what they need of the
// operator is Admits.
func Applicable(collective string, a Algo, p Params) bool {
	if a == AlgoButterfly {
		return true
	}
	found := false
	for _, cand := range Algos(collective) {
		if cand == a {
			found = true
		}
	}
	if !found || p.P < 2 {
		return false
	}
	switch a {
	case AlgoRabenseifner, AlgoRing:
		return p.M >= p.P
	case AlgoRingBi:
		// Each direction carries half the block: one word per member and
		// direction.
		return p.M/2 >= p.P // p.M >= 2·p.P, which cannot wrap
	case AlgoPipeline:
		return p.M >= 1
	}
	return false
}

// laws are the operator properties Admits reads.
var laws = algebra.Default()

// Admits reports whether the algorithm computes a reduction over op. Every
// alternative to the butterfly splits or segments the block, so it needs a
// splittable operator. Ring and ring-bi also start each block's combine at
// a different member, and Rabenseifner's recursive halving combines
// partners in distance order: all three reorder the members'
// contributions, so they need an operator algebra.Default() declares
// commutative. Only the pipeline combines in rank order, as the butterfly
// does. The portfolio pricing (BestAlgo), the selection layer (coll/sel)
// and the dispatch (coll.ReduceBy) all decide through it; the coll
// package's schedule checks derive each algorithm's combining order and
// hold this rule to it.
func Admits(a Algo, op *algebra.Op) bool {
	switch {
	case a == AlgoButterfly:
		return true
	case !splittable(op):
		return false
	case a == AlgoPipeline:
		return true
	}
	return laws.Commutative(op)
}

// AlgoLine is the §4.1-model line of running the collective with the
// algorithm at parameters p. It returns ok = false when the algorithm
// does not apply (see Applicable). The lines, with q = (p−1)/p the
// reduce-scatter volume fraction:
//
//	butterfly     log p · (ts + m·(tw+1))            (equation (16))
//	rabenseifner  2·log p·ts + 2q·m·tw + q·m  [+ fold for non-pow2 p]
//	ring          2(p−1)·ts + 2q·m·tw + q·m
//	ring-bi       2(p−1)·ts +  q·m·tw + q·m          (full-duplex links)
//	pipeline      (p−2+k)·(ts + (m/k)·(tw+1)),  k = PipelineSegments
//
// The ring-bi line prices both directions' concurrent transfers at the
// volume of one (the full-duplex assumption); on hosts whose links
// serialize the two directions the measured crossover shifts — exactly
// what calib.ValidateAlgos reports.
func AlgoLine(collective string, a Algo, p Params) (Line, bool) {
	if !Applicable(collective, a, p) {
		return Line{}, false
	}
	m, q := p.m(), float64(p.P-1)/float64(p.P)
	switch a {
	case AlgoButterfly:
		l, _ := ReduceLine(p)
		return l, true
	case AlgoRabenseifner:
		l := Line{1, 2 * p.LogP(), 2 * q * m, q * m}
		if p.P&(p.P-1) != 0 {
			// Fold the surplus ranks into leaders first and unfold after:
			// one full-block exchange each way plus one combine.
			l = l.Add(Line{1, 2, 2 * m, m})
		}
		return l, true
	case AlgoRing:
		return Line{1, 2 * float64(p.P-1), 2 * q * m, q * m}, true
	case AlgoRingBi:
		return Line{1, 2 * float64(p.P-1), q * m, q * m}, true
	case AlgoPipeline:
		return pipelineLine(p, PipelineSegments(p)), true
	}
	return Line{}, false
}

// AlgoCost is AlgoLine priced at p.
func AlgoCost(collective string, a Algo, p Params) (float64, bool) {
	l, ok := AlgoLine(collective, a, p)
	return l.At(p), ok
}

// BreakEven finds, by bisection over the block size m within [1, hi],
// the smallest m at which the algorithm's predicted cost undercuts the
// butterfly's at fixed ts, tw and p — the model's crossover point for
// this (collective, algorithm, p). It returns 0 when the algorithm never
// wins in range. Bisection applies because every alternative's line has
// a strictly smaller per-word slope than the butterfly's wherever it
// wins at all: once ahead, it stays ahead as m grows.
func BreakEven(collective string, a Algo, base Params, hi int) int {
	loses := func(m int) bool {
		p := base
		p.M = m
		c, ok := AlgoCost(collective, a, p)
		if !ok {
			return true
		}
		bf, _ := AlgoCost(collective, AlgoButterfly, p)
		return c >= bf
	}
	if loses(hi) {
		return 0
	}
	if !loses(1) {
		return 1
	}
	_, first := Bisect(1, hi, -1, loses)
	return first
}

// BestAlgo returns the cheapest algorithm for a reduction over op that is
// applicable at parameters p and that Admits, under the calibrated model,
// and its predicted cost. The butterfly is always a candidate, so the
// result never costs more than the butterfly line.
func BestAlgo(collective string, p Params, op *algebra.Op) (Algo, float64) {
	best := AlgoButterfly
	bestCost, _ := AlgoCost(collective, AlgoButterfly, p)
	for _, a := range Algos(collective)[1:] {
		if c, ok := AlgoCost(collective, a, p); ok && c < bestCost && Admits(a, op) {
			best, bestCost = a, c
		}
	}
	return best, bestCost
}

// OfTermAuto estimates t like OfTerm, but prices every unbalanced
// reduction stage over a base operator at its best-known admitted
// algorithm's cost line instead of the butterfly's — the scoring function
// of the auto-selecting engine (rules.Engine.Auto). Every other stage is
// priced exactly as OfTerm, so OfTermAuto(t) ≤ OfTerm(t) always, and the
// two agree on programs without eligible reductions.
func OfTermAuto(t term.Term, p Params) float64 { return Walk(term.Stages(t), p, PricePortfolio, nil) }

// Selectable reports whether a stage seeing per-processor block size b is
// a reduction eligible for algorithm selection (SelectableReduce) and, if
// so, the collective it is, its operator and the parameters the portfolio
// prices it at: p at the block size rounded to whole words. The walk's
// portfolio pricing and the selection layer (coll/sel) both decide
// through it and BestAlgo, so the estimate and the recorded selections
// cannot drift apart.
func Selectable(stage term.Term, p Params, b float64) (collective string, op *algebra.Op, at Params, ok bool) {
	r, isReduce := stage.(term.Reduce)
	if !isReduce || !SelectableReduce(r) {
		return "", nil, p, false
	}
	collective = CollReduce
	if r.All {
		collective = CollAllReduce
	}
	p.M = int(math.Round(b))
	return collective, r.Op, p, true
}

// SelectableReduce reports whether a reduction stage is eligible for
// algorithm selection: unbalanced (the balanced variants exist precisely
// to host the rules' non-associative derived operators) and over a
// splittable operator.
func SelectableReduce(r term.Reduce) bool {
	return !r.Balanced && splittable(r.Op)
}

// splittable reports whether op combines word by word, so that a block
// may be split or segmented: a base operator. A derived tuple operator
// combines whole tuples.
func splittable(op *algebra.Op) bool {
	return op != nil && op.Elem != nil && op.Arity == 1
}
