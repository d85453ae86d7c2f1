package calib

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cost"
	"repro/internal/exper"
)

// AlgoValidation is one (collective, algorithm, group size) record of
// the portfolio validation: the wall-clock sweep of the algorithm
// against the §4.1 butterfly, the crossover block size the calibrated
// cost lines predict, the one the native backend measures, and their
// disagreement. Where the rule validation's crossover is the largest
// block at which a fusion still wins, an algorithm's crossover is the
// smallest block at which it first beats the butterfly — the portfolio
// wins in the bandwidth-dominated regime, the rules in the
// start-up-dominated one.
type AlgoValidation struct {
	// Collective and Algo identify the measured pairing.
	Collective string    `json:"collective"`
	Algo       cost.Algo `json:"algo"`
	// P is the group size of the sweep.
	P int `json:"p"`
	// Ms, ButterflyNs and AlgoNs are the sweep: the applicable block
	// sizes and the measured wall-clock makespans of both sides.
	Ms          []int     `json:"ms"`
	ButterflyNs []float64 `json:"butterfly_ns"`
	AlgoNs      []float64 `json:"algo_ns"`
	// PredCross and MeasCross are the break-even block sizes — the
	// smallest m at which the algorithm undercuts the butterfly —
	// predicted by the calibrated cost lines (cost.BreakEven) and
	// measured by bisection on the Host. 0 means the
	// algorithm never won within the sweep.
	PredCross int `json:"predicted_crossover"`
	MeasCross int `json:"measured_crossover"`
	// AbsErr and RelErr quantify the prediction error:
	// |predicted − measured| and the same relative to the measured
	// crossover (relative to the sweep cap when the measured crossover
	// is 0).
	AbsErr int     `json:"abs_err"`
	RelErr float64 `json:"rel_err"`
	// Agreement is the fraction of sweep points where the calibrated
	// model's winner matches the measured one — the accuracy of the
	// selection layer's choices on this machine.
	Agreement float64 `json:"agreement"`
}

// ValidateAlgos runs every portfolio algorithm head-to-head against the
// butterfly on h across the configured sweep (exper.SweepAlgos) and
// reports the predicted-vs-measured crossover and the model's agreement
// with the measured winners per (collective, algorithm, group size) —
// the calibration evidence behind the selection layer (coll/sel). fit
// must be h's own: its ts/tw drive the predicted side. Only the block
// sizes the algorithm can run at (cost.Applicable) are measured.
func ValidateAlgos(h exper.Host, fit Fit, cfg Config) ([]AlgoValidation, error) {
	ps := cfg.AlgoPs
	if len(ps) == 0 {
		ps = []int{cfg.ValidateP}
	}
	groups, err := exper.SweepAlgos(h, fit.Ts, fit.Tw, ps, cfg.ValidateMs)
	if err != nil {
		return nil, err
	}
	out := make([]AlgoValidation, 0, len(groups))
	for _, g := range groups {
		v := AlgoValidation{
			Collective: g.Collective, Algo: g.Algo, P: g.P,
			Ms: g.Ms, ButterflyNs: g.ButterflyNs, AlgoNs: g.AlgoNs,
			PredCross: g.PredCross, MeasCross: g.MeasCross,
		}
		agree := 0
		for i, m := range g.Ms {
			pp := cost.Params{Ts: fit.Ts, Tw: fit.Tw, P: g.P, M: m}
			c, _ := cost.AlgoCost(g.Collective, g.Algo, pp)
			bf, _ := cost.AlgoCost(g.Collective, cost.AlgoButterfly, pp)
			if (c < bf) == (g.AlgoNs[i] < g.ButterflyNs[i]) {
				agree++
			}
		}
		v.Agreement = float64(agree) / float64(len(g.Ms))
		v.AbsErr, v.RelErr = relErr(v.PredCross, v.MeasCross, cfg.ValidateMs[len(cfg.ValidateMs)-1])
		out = append(out, v)
	}
	return out, nil
}

// FormatAlgoValidation renders the per-algorithm crossover table.
func FormatAlgoValidation(val []AlgoValidation) string {
	if len(val) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== Algorithm crossovers (smallest m beating the butterfly, predicted with calibrated ts/tw) ==\n")
	fmt.Fprintf(&b, "%-10s %-13s %4s %12s %12s %8s %8s %7s\n",
		"Collective", "algorithm", "p", "predicted m", "measured m", "abs err", "rel err", "agree")
	for _, v := range val {
		fmt.Fprintf(&b, "%-10s %-13s %4d %12s %12s %8d %7.0f%% %6.0f%%\n",
			v.Collective, v.Algo, v.P, firstWin(v.PredCross), firstWin(v.MeasCross),
			v.AbsErr, 100*v.RelErr, 100*v.Agreement)
	}
	return b.String()
}

// firstWin renders an algorithm's crossover block size, "never" for the 0
// that means it did not win in range.
func firstWin(m int) string {
	if m == 0 {
		return "never"
	}
	return strconv.Itoa(m)
}
