package calib

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exper"
)

// RuleValidation is one rule's predicted-vs-measured break-even record:
// the wall-clock sweep of both sides, the crossover block size the
// calibrated closed forms predict, the one the Host measures, and their
// disagreement.
type RuleValidation struct {
	// Rule and Class identify the rule.
	Rule  string `json:"rule"`
	Class string `json:"class"`
	// LHS and RHS are the unfused and fused programs measured.
	LHS string `json:"lhs"`
	RHS string `json:"rhs"`
	// P is the group size of the sweep.
	P int `json:"p"`
	// Ms, LhsNs and RhsNs are the sweep: block sizes and the measured
	// wall-clock makespans of both sides.
	Ms    []int     `json:"ms"`
	LhsNs []float64 `json:"lhs_ns"`
	RhsNs []float64 `json:"rhs_ns"`
	// PredCross and MeasCross are the break-even block sizes — the
	// largest m at which the rule still improves — predicted by the
	// calibrated closed forms and measured by bisection on the Host.
	// Both are capped at the sweep's largest block size.
	PredCross int `json:"predicted_crossover"`
	MeasCross int `json:"measured_crossover"`
	// Capped reports that both crossovers sit at the sweep cap: the
	// rule improves at every tested size and no break-even exists in
	// range.
	Capped bool `json:"capped"`
	// AbsErr and RelErr quantify the prediction error:
	// |predicted − measured| and the same relative to the measured
	// crossover (relative to the cap when the measured crossover is 0).
	AbsErr int     `json:"abs_err"`
	RelErr float64 `json:"rel_err"`
	// Agreement is the fraction of sweep points where the calibrated
	// condition's verdict matches the measured one — the accuracy of
	// the cost-guided engine's apply/skip decisions on this machine.
	Agreement float64 `json:"agreement"`
}

// Validate replays every Table 1 rule's left- and right-hand side on h
// across the configured block-size sweep (exper.SweepRules) and reports
// the predicted-vs-measured break-even per rule. The predictions use the
// calibrated parameters of fit. The measured crossover is located from
// the sweep and sharpened by bisection between the bracketing sweep
// points (RuleSweep.LastWin), so its resolution does not depend on the
// sweep's granularity.
func Validate(h exper.Host, fit Fit, cfg Config) ([]RuleValidation, error) {
	p, ms := cfg.ValidateP, cfg.ValidateMs
	if p < 2 || len(ms) == 0 {
		return nil, fmt.Errorf("calib: validation needs p ≥ 2 and a non-empty block-size sweep")
	}
	maxM := ms[len(ms)-1]
	base := cost.Params{Ts: fit.Ts, Tw: fit.Tw, P: p}
	groups, err := exper.SweepRules(h.Run, core.Machine{Ts: fit.Ts, Tw: fit.Tw, P: p}, ms, nil)
	if err != nil {
		return nil, err
	}
	var out []RuleValidation
	for _, g := range groups {
		entry, err := exper.Entry(g.Rule)
		if err != nil {
			return nil, err
		}
		v := RuleValidation{
			Rule: g.Rule, Class: g.Class,
			LHS: g.LHS.String(), RHS: g.RHS.String(),
			P: p, Ms: ms, LhsNs: g.LhsT, RhsNs: g.RhsT,
		}
		agree := 0
		for i, m := range ms {
			pp := base
			pp.M = m
			if entry.Improves(pp) == (g.RhsT[i] < g.LhsT[i]) {
				agree++
			}
		}
		v.Agreement = float64(agree) / float64(len(ms))
		v.PredCross = cost.Crossover(entry, base, maxM)
		v.MeasCross = g.LastWin(8)
		v.Capped = v.PredCross == maxM && v.MeasCross == maxM
		v.AbsErr, v.RelErr = relErr(v.PredCross, v.MeasCross, maxM)
		out = append(out, v)
	}
	return out, nil
}

// relErr is a crossover prediction's error: |pred − meas|, absolute and
// relative to the measured crossover — relative to the sweep cap when the
// measured crossover is 0, where there is nothing measured to divide by.
func relErr(pred, meas, cap int) (int, float64) {
	abs := pred - meas
	if abs < 0 {
		abs = -abs
	}
	if meas == 0 {
		meas = cap
	}
	return abs, float64(abs) / float64(meas)
}
