package exper

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/cost"
)

// NativeBenchRecord is one row of the native wall-clock suite, the
// machine-readable unit of BENCH_native.json. Each record is
// self-describing: besides the measurement it names the backend, the
// repetition discipline, and the cost-model parameters the run assumed,
// so a record can be audited without the command line that produced it.
type NativeBenchRecord struct {
	// Backend names the Host that measured the row ("native",
	// "multiproc").
	Backend string `json:"backend"`
	// Reps is the number of repetitions the measurement is the minimum
	// of.
	Reps int `json:"reps"`
	// Params are the cost-model parameters in force for this row —
	// ts/tw as configured (or calibrated), and this row's p and m.
	Params cost.Params `json:"params"`
	// Op is the measured program in the paper's notation.
	Op string `json:"op"`
	// Rule is the optimization rule the program belongs to.
	Rule string `json:"rule"`
	// Side is "lhs" (unfused) or "rhs" (fused).
	Side string `json:"side"`
	// P is the group size, M the per-rank block size in words.
	P int `json:"p"`
	M int `json:"m"`
	// NsPerOp is the measured wall-clock makespan in nanoseconds
	// (minimum over the suite's repetitions).
	NsPerOp float64 `json:"ns_per_op"`
	// Speedup is the unfused time divided by this row's time: > 1 on an
	// rhs row means the fused form won for real.
	Speedup float64 `json:"speedup"`
	// PredCross and MeasCross appear on the algorithm-portfolio rows
	// (see AlgoRecords): the block size at which the algorithm first
	// undercuts the butterfly, predicted by the calibrated cost lines
	// and measured on this host; 0 means it never won in range.
	PredCross int `json:"predicted_crossover,omitempty"`
	MeasCross int `json:"measured_crossover,omitempty"`
}

// NativeFusionConfig sizes the wall-clock suite.
type NativeFusionConfig struct {
	// P is the group size; the Local rules require a power of two.
	P int
	// Ms are the block sizes to sweep. Small blocks are the
	// start-up-dominated regime where fusion should win; large blocks
	// are bandwidth/compute-dominated where it should not.
	Ms []int
	// Rules restricts the suite to the named rules; nil measures all.
	Rules []string
	// Ts and Tw are the cost-model parameters to record with each row
	// (they do not affect the measurement — the host's real costs
	// apply). Pass calibrated values so the emitted records carry them.
	Ts, Tw float64
}

// DefaultNativeFusionConfig sweeps all rules on 8 ranks across four block
// sizes spanning both regimes.
func DefaultNativeFusionConfig() NativeFusionConfig {
	return NativeFusionConfig{P: 8, Ms: []int{1, 16, 256, 4096}}
}

// NativeFusion measures every optimization rule's left-hand side and
// rewritten right-hand side on h (the native Host, carrying its
// transport) across block sizes — the wall-clock analogue of Table 1,
// one record pair per point of SweepRules. The returned records carry
// the measured speedups; pass them to WriteJSON to persist the perf
// trajectory.
func NativeFusion(h Host, cfg NativeFusionConfig) ([]NativeBenchRecord, error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("exper: native suite needs p ≥ 1, got %d", cfg.P)
	}
	groups, err := SweepRules(h.Run, core.Machine{Ts: cfg.Ts, Tw: cfg.Tw, P: cfg.P}, cfg.Ms, cfg.Rules)
	if err != nil {
		return nil, err
	}
	var out []NativeBenchRecord
	for _, g := range groups {
		for i, m := range g.Ms {
			params := cost.Params{Ts: cfg.Ts, Tw: cfg.Tw, M: m, P: cfg.P}
			out = append(out, h.recordPair(params, g.Rule, g.LHS.String(), g.RHS.String(), g.LhsT[i], g.RhsT[i])...)
		}
	}
	return out, nil
}

// recordPair renders one head-to-head point as its two rows: the "lhs"
// row with speedup 1 and the "rhs" row with the measured ratio.
func (h Host) recordPair(params cost.Params, rule, lhsOp, rhsOp string, lhsNs, rhsNs float64) []NativeBenchRecord {
	row := NativeBenchRecord{Backend: h.Name, Reps: h.Reps, Params: params, Rule: rule, P: params.P, M: params.M}
	lhs, rhs := row, row
	lhs.Op, lhs.Side, lhs.NsPerOp, lhs.Speedup = lhsOp, "lhs", lhsNs, 1
	rhs.Op, rhs.Side, rhs.NsPerOp, rhs.Speedup = rhsOp, "rhs", rhsNs, lhsNs/rhsNs
	return []NativeBenchRecord{lhs, rhs}
}

// WriteJSON writes v as indented JSON — the emitter of BENCH_native.json
// (a []NativeBenchRecord) and of the calibration report.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// FormatNativeFusion renders the records as an aligned text table, fused
// and unfused side by side — one line per lhs/rhs pair, which every suite
// emits adjacently.
func FormatNativeFusion(recs []NativeBenchRecord) string {
	out := fmt.Sprintf("%-14s %6s %7s %14s %14s %8s\n", "Rule", "p", "m", "lhs ns", "rhs ns", "speedup")
	for i := 1; i < len(recs); i++ {
		lhs, r := recs[i-1], recs[i]
		if lhs.Side == "lhs" && r.Side == "rhs" && lhs.Rule == r.Rule && lhs.P == r.P && lhs.M == r.M {
			out += fmt.Sprintf("%-14s %6d %7d %14.0f %14.0f %7.2fx\n",
				r.Rule, r.P, r.M, lhs.NsPerOp, r.NsPerOp, r.Speedup)
		}
	}
	return out
}
