package calib

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exper"
	"repro/internal/mpbackend"
	"repro/internal/rules"
)

// RuleValidation is one rule's predicted-vs-measured break-even record:
// the wall-clock sweep of both sides, the crossover block size the
// calibrated closed forms predict, the one the native backend measures,
// and their disagreement.
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
	// calibrated closed forms and measured by bisection on the native
	// backend. Both are capped at the sweep's largest block size.
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

// Validate replays every Table 1 rule's left- and right-hand side on the
// native backend across the configured block-size sweep and reports the
// predicted-vs-measured break-even per rule. The predictions use the
// calibrated parameters of fit; measurements take the minimum over
// cfg.Reps runs. The measured crossover is located from the sweep and
// sharpened by bisection between the bracketing sweep points, so its
// resolution does not depend on the sweep's granularity.
func Validate(fit Fit, cfg Config) ([]RuleValidation, error) {
	p := cfg.ValidateP
	ms := cfg.ValidateMs
	if p < 2 || len(ms) == 0 {
		return nil, fmt.Errorf("calib: validation needs p ≥ 2 and a non-empty block-size sweep")
	}
	maxM := ms[len(ms)-1]
	run := exper.NativeRunner(cfg.Reps)
	var out []RuleValidation
	for _, pat := range exper.Patterns() {
		r, ok := rules.ByName(pat.Rule)
		if !ok {
			return nil, fmt.Errorf("calib: no rule named %s", pat.Rule)
		}
		if r.Class == "Local" && p&(p-1) != 0 {
			// The Local rules rewrite to f^(log p) and need a
			// power-of-two machine.
			continue
		}
		entry, ok := cost.Lookup(pat.Rule)
		if !ok {
			return nil, fmt.Errorf("calib: no Table 1 entry for %s", pat.Rule)
		}
		eng := rules.NewEngine()
		eng.Rules = []rules.Rule{r}
		eng.Env.P = p
		opt, apps := eng.Optimize(pat.LHS.Term())
		if len(apps) != 1 {
			return nil, fmt.Errorf("calib: rule %s did not apply at p=%d", pat.Rule, p)
		}
		rhs := core.FromTerm(opt)

		v := RuleValidation{
			Rule: pat.Rule, Class: r.Class,
			LHS: pat.LHS.String(), RHS: rhs.String(),
			P: p, Ms: ms,
		}
		improves := func(m int) bool {
			mach := core.Machine{P: p, M: m}
			in := mpbackend.SeededInputs(11, p, m)
			run(pat.LHS, mach, in) // warm-up, keeps first-run noise out
			return run(rhs, mach, in) < run(pat.LHS, mach, in)
		}
		agree := 0
		base := cost.Params{Ts: fit.Ts, Tw: fit.Tw, P: p}
		for _, m := range ms {
			mach := core.Machine{P: p, M: m}
			in := mpbackend.SeededInputs(11, p, m)
			run(pat.LHS, mach, in)
			lhsNs := run(pat.LHS, mach, in)
			rhsNs := run(rhs, mach, in)
			v.LhsNs = append(v.LhsNs, lhsNs)
			v.RhsNs = append(v.RhsNs, rhsNs)
			pp := base
			pp.M = m
			if entry.Improves(pp) == (rhsNs < lhsNs) {
				agree++
			}
		}
		v.Agreement = float64(agree) / float64(len(ms))
		v.PredCross = cost.Crossover(entry, base, maxM)
		v.MeasCross = measuredCrossover(v, improves, maxM)
		v.Capped = v.PredCross == maxM && v.MeasCross == maxM
		v.AbsErr = v.PredCross - v.MeasCross
		if v.AbsErr < 0 {
			v.AbsErr = -v.AbsErr
		}
		v.RelErr = float64(v.AbsErr) / float64(max(v.MeasCross, 1))
		out = append(out, v)
	}
	return out, nil
}

// measuredCrossover locates the largest block size at which the fused
// side still wins. The sweep gives the bracket: the last sweep point
// where the right-hand side measured faster, and the next point where
// it did not; bisection with fresh native measurements then sharpens
// the boundary inside the bracket.
func measuredCrossover(v RuleValidation, improves func(m int) bool, maxM int) int {
	last := -1 // index of the last sweep point where rhs won
	for i := range v.Ms {
		if v.RhsNs[i] < v.LhsNs[i] {
			last = i
		}
	}
	switch {
	case last < 0:
		return 0
	case last == len(v.Ms)-1:
		return maxM
	}
	lo, hi := v.Ms[last], v.Ms[last+1] // improves(lo), !improves(hi)
	for i := 0; i < 8 && hi-lo > 1; i++ {
		mid := (lo + hi) / 2
		if improves(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}
