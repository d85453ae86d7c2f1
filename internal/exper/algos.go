package exper

import (
	"fmt"
	"strconv"

	"repro/internal/cost"
	"repro/internal/mpbackend"
)

// This file is the algorithm portfolio's measurement: each portfolio
// algorithm (coll/algo.go) head-to-head against the §4.1 butterfly on a
// Host, under both the BENCH_native algorithm records and calib's
// crossover validation.

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

// NativeAlgoConfig sizes the algorithm-portfolio wall-clock sweep.
type NativeAlgoConfig struct {
	// Ps are the group sizes; include a non-power-of-two to exercise the
	// rabenseifner fold path.
	Ps []int
	// Ms are the block sizes swept; per algorithm only the applicable
	// subset is measured (the chunked algorithms need m ≥ p or 2p).
	Ms []int
	// Ts and Tw are the calibrated cost-model parameters recorded with
	// each row and used for the predicted crossovers (they do not affect
	// the measurement — the Host's real costs apply).
	Ts, Tw float64
}

// DefaultNativeAlgoConfig sweeps the portfolio on 7 and 8 ranks across
// block sizes spanning the start-up-dominated and bandwidth-dominated
// regimes.
func DefaultNativeAlgoConfig() NativeAlgoConfig {
	return NativeAlgoConfig{Ps: []int{7, 8}, Ms: []int{16, 256, 1024, 4096, 16384}}
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
// largest m). The benchmark records (AlgoRecords) and the calibration's
// crossover validation (calib.ValidateAlgos) are views of its groups.
// Groups with no applicable block size are omitted.
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

// AlgoRecords measures every portfolio algorithm head-to-head against
// the butterfly on h — the wall-clock records behind docs/ALGORITHMS.md's
// crossover table, labelled with the Host's name. Rows pair up like the
// fusion suite's: per (collective, algorithm, p, m) a "lhs" row carries
// the butterfly and an "rhs" row the algorithm, with Speedup the ratio.
// Each rhs row additionally carries the predicted and measured crossover
// block sizes of its (collective, algorithm, p) group (see AlgoSweep);
// cfg.Ts/cfg.Tw should be h's own calibration, so the predicted
// crossovers are the ones the calibrated model would act on there.
func AlgoRecords(h Host, cfg NativeAlgoConfig) ([]NativeBenchRecord, error) {
	groups, err := SweepAlgos(h, cfg.Ts, cfg.Tw, cfg.Ps, cfg.Ms)
	if err != nil {
		return nil, err
	}
	var out []NativeBenchRecord
	for _, g := range groups {
		rule := fmt.Sprintf("Algo-%s/%s", g.Collective, g.Algo) // the record group, e.g. "Algo-allreduce/ring-bi"
		for i, m := range g.Ms {
			pair := h.recordPair(cost.Params{Ts: cfg.Ts, Tw: cfg.Tw, P: g.P, M: m}, rule,
				g.Collective+"(+)", fmt.Sprintf("%s(+)@%s", g.Collective, g.Algo), g.ButterflyNs[i], g.AlgoNs[i])
			pair[1].PredCross, pair[1].MeasCross = g.PredCross, g.MeasCross
			out = append(out, pair...)
		}
	}
	return out, nil
}

// FormatAlgoCrossovers renders the per-(algorithm, p) crossover summary
// of an algorithm sweep's records: one line per group with the predicted
// and measured break-even block sizes.
func FormatAlgoCrossovers(recs []NativeBenchRecord) string {
	out := fmt.Sprintf("%-28s %4s %12s %12s\n", "Algorithm", "p", "predicted m", "measured m")
	seen := map[string]bool{}
	for _, r := range recs {
		if r.Side != "rhs" {
			continue
		}
		key := fmt.Sprintf("%s/%d", r.Rule, r.P)
		if seen[key] {
			continue
		}
		seen[key] = true
		out += fmt.Sprintf("%-28s %4d %12s %12s\n", r.Rule, r.P, FormatFirstWin(r.PredCross), FormatFirstWin(r.MeasCross))
	}
	return out
}

// FormatFirstWin renders an algorithm's crossover block size, "never" for
// the 0 that means it did not win in range.
func FormatFirstWin(m int) string {
	if m == 0 {
		return "never"
	}
	return strconv.Itoa(m)
}
