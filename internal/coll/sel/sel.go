// Package sel is the algorithm-selection layer: it picks, for every
// eligible reduction stage of a program, the cheapest collective algorithm
// from the calibrated portfolio (cost/algo.go) at that stage's (p, m) —
// turning the rule engine's target shape from "the butterfly form" into
// "the best-known form on this machine". Selections are pure data: the
// executor (core.RunStages) hands each to the one algorithm dispatch
// (coll.ReduceBy), the serving layer records them in plans and cache
// keys, and collbench sweeps them against measurements.
//
// Only unbalanced reductions over base operators are eligible
// (cost.SelectableReduce): every portfolio alternative splits or segments
// the block, which is unsound for the derived tuple operators the rules
// introduce. Among the alternatives, only those cost.Admits for the
// stage's operator are candidates: the rings reorder the combine and need
// a commutative one. The butterfly is always in the candidate set, so a
// selection is never predicted worse than the butterfly baseline.
package sel

import (
	"fmt"
	"slices"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/term"
)

// Selection records the algorithm chosen for one eligible reduction
// stage of a program.
type Selection struct {
	// Stage is the stage's index in the flattened stage list (the order
	// the executor runs them in).
	Stage int `json:"stage"`
	// Collective is the collective kind, cost.CollReduce or
	// cost.CollAllReduce.
	Collective string `json:"collective"`
	// Algo is the chosen algorithm.
	Algo cost.Algo `json:"algo"`
	// Segments is the pipeline's Lowery–Langou segment count; 0 for the
	// other algorithms.
	Segments int `json:"segments,omitempty"`
	// M is the per-processor block size (words) the stage is predicted to
	// see, tracked through gather/scatter reshaping.
	M int `json:"m"`
	// Predicted and Butterfly are the model costs of the chosen algorithm
	// and of the butterfly baseline at (p, M); Predicted ≤ Butterfly.
	Predicted float64 `json:"predicted"`
	Butterfly float64 `json:"butterfly"`
}

func (s Selection) String() string {
	out := fmt.Sprintf("stage %d %s m=%d: %s", s.Stage, s.Collective, s.M, s.Algo)
	if s.Segments > 0 {
		out += fmt.Sprintf(" k=%d", s.Segments)
	}
	if s.Algo != cost.AlgoButterfly {
		out += fmt.Sprintf(" (predicted %.0f vs butterfly %.0f)", s.Predicted, s.Butterfly)
	}
	return out
}

// Choose picks the cheapest applicable algorithm for one collective at
// parameters p over a commutative base operator such as +, which every
// algorithm admits. The butterfly is always a candidate, so Predicted ≤
// Butterfly.
func Choose(collective string, p cost.Params) Selection { return choose(collective, algebra.Add, p) }

// choose is Choose over the candidates cost.Admits for op.
func choose(collective string, op *algebra.Op, p cost.Params) Selection {
	a, c := cost.BestAlgo(collective, p, op)
	bf, _ := cost.AlgoCost(collective, cost.AlgoButterfly, p)
	s := Selection{Collective: collective, Algo: a, M: p.M, Predicted: c, Butterfly: bf}
	if a == cost.AlgoPipeline {
		s.Segments = cost.PipelineSegments(p)
	}
	return s
}

// ForTerm returns a Selection for every eligible reduction stage of the
// stage list t — including stages where the butterfly itself wins, so
// callers can see the whole decision. It reads the stages, their flattened
// indices and their block sizes (gather/scatter reshape them) off
// cost.Walk, the walk every estimate sums, and decides eligibility with
// cost.Selectable as the portfolio pricing does — so each Selection's
// Predicted is exactly what cost.OfTermAuto charges for its stage (the
// walk's own prices are not needed here, hence the cheapest policy). A nil
// result means no stage was eligible; the list is allocated once, at the
// first that is.
func ForTerm(t term.Seq, p cost.Params) []Selection {
	var out []Selection
	stages := t.Flat()
	cost.Walk(stages, p, cost.PriceButterfly, func(st cost.Step) {
		if collective, op, at, ok := cost.Selectable(st.Stage, p, st.In); ok {
			s := choose(collective, op, at)
			s.Stage = st.Index
			out = append(slices.Grow(out, len(stages)-st.Index), s)
		}
	})
	return out
}
