package exper

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/mpbackend"
)

// This file is the algorithm portfolio's measurement: each portfolio
// algorithm (coll/algo.go) head-to-head against the §4.1 butterfly on a
// Host, the sweep under calib's crossover validation.

// firstWin locates the smallest block size at which the algorithm beats
// the butterfly: the sweep gives the bracket — the first swept point
// where it measured faster, and the one before — and bisection with fresh
// wins() measurements sharpens the boundary inside it, so the resolution
// does not depend on the sweep's granularity. It returns 0 when the
// algorithm never won in the sweep and the smallest swept size when it
// already won there.
func (g AlgoSweep) firstWin(wins func(m int) bool) int {
	first := 0
	for first < len(g.Ms) && g.AlgoNs[first] >= g.ButterflyNs[first] {
		first++
	}
	switch first {
	case len(g.Ms):
		return 0
	case 0:
		return g.Ms[0]
	}
	_, hi := cost.Bisect(g.Ms[first-1], g.Ms[first], 8, func(m int) bool { return !wins(m) })
	return hi
}

// AlgoSweep is one (collective, algorithm, group size) group of the
// portfolio sweep: the applicable block sizes with both sides' measured
// times, and the predicted and measured crossover — the smallest m at
// which the algorithm first beats the butterfly, the measured one
// sharpened by bisection between sweep points; 0 means it never won in
// range.
type AlgoSweep struct {
	Collective          string
	Algo                cost.Algo
	P                   int
	Ms                  []int
	ButterflyNs, AlgoNs []float64
	PredCross           int
	MeasCross           int
}

// SweepAlgos is the one walk of the (collective × algorithm × p × m) grid:
// every portfolio algorithm head-to-head against the butterfly at each
// group size in ps and each block size in ms it can run at
// (cost.Applicable), timed on h as "collective" jobs over the seed-11
// blocks, with crossovers predicted from ts/tw (cost.BreakEven up to the
// largest m). The calibration's crossover validation
// (calib.ValidateAlgos) is the view of its groups. Groups with no
// applicable block size are omitted.
func SweepAlgos(h Host, ts, tw float64, ps, ms []int) ([]AlgoSweep, error) {
	if len(ps) == 0 || len(ms) == 0 {
		return nil, fmt.Errorf("exper: the algorithm sweep needs group and block sizes")
	}
	maxM := ms[len(ms)-1]
	var out []AlgoSweep
	for _, p := range ps {
		if p < 2 {
			return nil, fmt.Errorf("exper: the algorithm sweep needs p ≥ 2, got %d", p)
		}
		base := cost.Params{Ts: ts, Tw: tw, P: p}
		for _, collective := range []string{cost.CollAllReduce, cost.CollReduce} {
			for _, a := range cost.Algos(collective)[1:] {
				at := func(m int) (bfNs, algNs float64, err error) {
					pp := base
					pp.M = m
					job := mpbackend.CollectiveParams{Collective: collective, Op: "add", M: m, Seed: 11}
					if bfNs, _, err = h.Collective(job, p); err != nil {
						return 0, 0, err
					}
					job.Algo, job.Segments = string(a), cost.PipelineSegments(pp)
					algNs, _, err = h.Collective(job, p)
					return bfNs, algNs, err
				}
				g := AlgoSweep{Collective: collective, Algo: a, P: p}
				for _, m := range ms {
					pp := base
					pp.M = m
					if !cost.Applicable(collective, a, pp) {
						continue
					}
					bfNs, algNs, err := at(m)
					if err != nil {
						return nil, err
					}
					g.Ms = append(g.Ms, m)
					g.ButterflyNs = append(g.ButterflyNs, bfNs)
					g.AlgoNs = append(g.AlgoNs, algNs)
				}
				if len(g.Ms) == 0 {
					continue
				}
				g.PredCross = cost.BreakEven(collective, a, base, maxM)
				g.MeasCross = g.firstWin(func(m int) bool {
					// A failed bisection probe counts as a loss: the
					// bracketing sweep measurements already succeeded, so
					// the reported crossover degrades to sweep resolution
					// instead of failing the whole suite.
					bfNs, algNs, err := at(m)
					return err == nil && algNs < bfNs
				})
				out = append(out, g)
			}
		}
	}
	return out, nil
}
