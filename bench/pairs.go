package main

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/term"
)

// fit is a calibrated cost model: ts and tw in operator units, tcNs the
// nanoseconds one unit takes. The values are the committed fits of
// CALIB_native.json (sections "fit" and "multiproc"), copied here so the
// benchmark keeps its meaning when that file is regenerated or retired.
// They are host-dependent: read the numbers derived from them as a trend.
type fit struct{ ts, tw, tcNs float64 }

var (
	nativeFit    = fit{ts: 136.7567585316851, tw: 0, tcNs: 2.052395984585264}
	multiprocFit = fit{ts: 150.1179913698185, tw: 1.150463271041593, tcNs: 2.968680126217155}
)

// predictNs is the fitted model's run time of a program.
func (f fit) predictNs(t term.Term, p, m int) float64 {
	return f.tcNs * cost.OfTerm(t, cost.Params{Ts: f.ts, Tw: f.tw, P: p, M: m})
}

// pairRow is one rule's measured and predicted times: the Table 1
// break-even on this backend.
type pairRow struct {
	Rule      string  `json:"rule"`
	LHSNs     float64 `json:"lhs_ns"`
	RHSNs     float64 `json:"rhs_ns"`
	Speedup   float64 `json:"speedup"`
	PredLHSNs float64 `json:"pred_lhs_ns"`
	PredRHSNs float64 `json:"pred_rhs_ns"`
}

// sweepTable collects the per-program makespans of an exec workload's
// sweeps: perProg[2i] is pair i's lhs, perProg[2i+1] its rhs, nanoseconds.
type sweepTable struct {
	perProg  [][]float64
	lhs, rhs []float64 // Σ makespans of the 14 unfused, resp. fused programs, per sweep
}

func (t *sweepTable) add(progNs []float64) {
	if t.perProg == nil {
		t.perProg = make([][]float64, len(progNs))
	}
	var side [2]float64
	for k, ns := range progNs {
		t.perProg[k] = append(t.perProg[k], ns)
		side[k%2] += ns
	}
	t.lhs = append(t.lhs, side[0])
	t.rhs = append(t.rhs, side[1])
}

// report folds the table into the measurement: the sweep sums, the
// per-rule table and the numbers derived from it against the fitted model.
func (t *sweepTable) report(ms *measurement, corpus []pair, f fit, p, m int) {
	var speedups, predOverMeas []float64
	agree := 0
	for i := range corpus {
		c := &corpus[i]
		row := pairRow{
			Rule: c.rule, LHSNs: median(t.perProg[2*i]), RHSNs: median(t.perProg[2*i+1]),
			PredLHSNs: f.predictNs(c.lhs.Term(), p, m), PredRHSNs: f.predictNs(c.rhs.Term(), p, m),
		}
		row.Speedup = row.LHSNs / row.RHSNs
		speedups = append(speedups, row.Speedup)
		predOverMeas = append(predOverMeas, row.PredLHSNs/row.LHSNs, row.PredRHSNs/row.RHSNs)
		if (row.PredRHSNs < row.PredLHSNs) == (row.RHSNs < row.LHSNs) {
			agree++
		}
		ms.pairs = append(ms.pairs, row)
	}
	ms.layer["exec.lhs_sweep_us"] = median(t.lhs) / 1e3
	ms.layer["exec.rhs_sweep_us"] = median(t.rhs) / 1e3
	ms.layer["rules.fused_speedup"] = geomean(speedups)
	ms.layer["rules.plan_cost_ratio"] = modelCostRatio(corpus, p, m)
	ms.layer["cost.pred_over_meas_p50"] = median(predOverMeas)
	ms.layer["cost.decision_agreement"] = float64(agree) / float64(len(corpus))
}

func termSeq(p core.Program) term.Seq { return term.Compose(p.Term()) }
