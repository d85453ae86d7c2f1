package exper

import (
	"fmt"
	"math"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
	"repro/internal/cost"
	"repro/internal/mpbackend"
)

// This file is the wall-clock side of the algorithm portfolio: it runs
// each portfolio algorithm (coll/algo.go) head-to-head against the §4.1
// butterfly on the native backend, the measurement under both the
// BENCH_native algorithm records and calib's crossover validation.

// MeasureCollective measures the wall-clock makespan in nanoseconds of
// one collective executed with the given portfolio algorithm on the
// native backend machine nm, taking the minimum over reps runs. segments
// is the pipeline's segment count and is ignored by every other
// algorithm. The caller is expected to warm the machine up with one
// discarded call so mailbox and arena allocation stays out of the
// minimum.
func MeasureCollective(nm *backend.Machine, collective string, a cost.Algo, op *algebra.Op, in []algebra.Value, segments, reps int) float64 {
	if reps < 1 {
		reps = 1
	}
	best := math.MaxFloat64
	for i := 0; i < reps; i++ {
		res := nm.Run(func(pr *backend.Proc) {
			coll.ReduceBy(pr, op, in[pr.Rank()], collective == cost.CollAllReduce, a, segments)
		})
		if ns := float64(res.Makespan.Nanoseconds()); ns < best {
			best = ns
		}
	}
	return best
}

// FirstWinCrossover locates the smallest block size at which wins(m)
// holds: won are the sweep verdicts at the block sizes ms, giving the
// bracket, and bisection with fresh wins() measurements sharpens the
// boundary inside it, so the resolution does not depend on the sweep's
// granularity. It returns 0 when the algorithm never wins in the sweep
// and ms[0] when it already wins at the smallest tested size.
func FirstWinCrossover(ms []int, won []bool, wins func(m int) bool) int {
	first := -1
	for i, w := range won {
		if w {
			first = i
			break
		}
	}
	switch {
	case first < 0:
		return 0
	case first == 0:
		return ms[0]
	}
	lo, hi := ms[first-1], ms[first] // !wins(lo), wins(hi)
	for i := 0; i < 8 && hi-lo > 1; i++ {
		mid := (lo + hi) / 2
		if wins(mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
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
	// Reps is the number of repetitions per measurement (minimum taken).
	Reps int
	// Ts and Tw are the calibrated cost-model parameters recorded with
	// each row and used for the predicted crossovers (they do not affect
	// the measurement — the host's real costs apply).
	Ts, Tw float64
	// Transport selects the native machine's transport mode; the zero
	// value is the zero-copy default. MultiProcAlgos ignores it — a
	// process boundary always serializes.
	Transport backend.TransportMode
}

// DefaultNativeAlgoConfig sweeps the portfolio on 7 and 8 ranks across
// block sizes spanning the start-up-dominated and bandwidth-dominated
// regimes.
func DefaultNativeAlgoConfig() NativeAlgoConfig {
	return NativeAlgoConfig{Ps: []int{7, 8}, Ms: []int{16, 256, 1024, 4096, 16384}, Reps: 7}
}

// AlgoMeasurer measures one head-to-head point of the portfolio sweep:
// the wall-clock nanoseconds of the butterfly and of algorithm a running
// the collective on p ranks at block size m (segments is the pipeline's
// segment count at that point). It is what differs between the native and
// the multi-process sweep; everything else is SweepAlgos.
type AlgoMeasurer func(collective string, a cost.Algo, p, m, segments int) (bfNs, algNs float64, err error)

// NativeAlgoMeasurer measures on the native backend: seeded inputs
// (seed 11), one discarded warm-up so mailbox and arena allocation stays
// out of the minimum, then the minimum over reps runs of each side on one
// machine per group size.
func NativeAlgoMeasurer(reps int, transport backend.TransportMode) AlgoMeasurer {
	var nm *backend.Machine
	return func(collective string, a cost.Algo, p, m, segments int) (bfNs, algNs float64, err error) {
		if nm == nil || nm.P != p {
			nm = backend.New(p)
			nm.Transport = transport
		}
		in := mpbackend.SeededInputs(11, p, m)
		MeasureCollective(nm, collective, a, algebra.Add, in, segments, 1) // warm-up
		bfNs = MeasureCollective(nm, collective, cost.AlgoButterfly, algebra.Add, in, 0, reps)
		algNs = MeasureCollective(nm, collective, a, algebra.Add, in, segments, reps)
		return bfNs, algNs, nil
	}
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
// (cost.Applicable), measured by measure, with crossovers predicted from
// ts/tw (cost.BreakEven up to the largest m). The benchmark records
// (NativeAlgos, MultiProcAlgos) and the calibration's crossover
// validation (calib.ValidateAlgos) are views of its groups. Groups with no
// applicable block size are omitted.
func SweepAlgos(ts, tw float64, ps, ms []int, measure AlgoMeasurer) ([]AlgoSweep, error) {
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
				at := func(m int) (float64, float64, error) {
					pp := base
					pp.M = m
					return measure(collective, a, p, m, cost.PipelineSegments(pp))
				}
				g := AlgoSweep{Collective: collective, Algo: a, P: p}
				var won []bool
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
					won = append(won, algNs < bfNs)
				}
				if len(g.Ms) == 0 {
					continue
				}
				g.PredCross = cost.BreakEven(collective, a, base, maxM)
				g.MeasCross = FirstWinCrossover(g.Ms, won, func(m int) bool {
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

// NativeAlgos measures every portfolio algorithm head-to-head against
// the butterfly on the native backend — the wall-clock records behind
// docs/ALGORITHMS.md's crossover table. Rows pair up like the fusion
// suite's: per (collective, algorithm, p, m) a "lhs" row carries the
// butterfly and an "rhs" row the algorithm, with Speedup the ratio. Each
// rhs row additionally carries the predicted and measured crossover
// block sizes of its (collective, algorithm, p) group (see AlgoSweep).
func NativeAlgos(cfg NativeAlgoConfig) ([]NativeBenchRecord, error) {
	return algoRecords("native", cfg, NativeAlgoMeasurer(cfg.Reps, cfg.Transport))
}

// algoRecords runs the sweep and renders its groups as benchmark records
// labelled with the backend.
func algoRecords(backendName string, cfg NativeAlgoConfig, measure AlgoMeasurer) ([]NativeBenchRecord, error) {
	groups, err := SweepAlgos(cfg.Ts, cfg.Tw, cfg.Ps, cfg.Ms, measure)
	if err != nil {
		return nil, err
	}
	reps := max(cfg.Reps, 1)
	var out []NativeBenchRecord
	for _, g := range groups {
		for i, m := range g.Ms {
			params := cost.Params{Ts: cfg.Ts, Tw: cfg.Tw, P: g.P, M: m}
			out = append(out,
				NativeBenchRecord{
					Backend: backendName, Reps: reps, Params: params,
					Op: g.Collective + "(+)", Rule: algoRule(g.Collective, g.Algo), Side: "lhs",
					P: g.P, M: m, NsPerOp: g.ButterflyNs[i], Speedup: 1,
				},
				NativeBenchRecord{
					Backend: backendName, Reps: reps, Params: params,
					Op: fmt.Sprintf("%s(+)@%s", g.Collective, g.Algo), Rule: algoRule(g.Collective, g.Algo), Side: "rhs",
					P: g.P, M: m, NsPerOp: g.AlgoNs[i], Speedup: g.ButterflyNs[i] / g.AlgoNs[i],
					PredCross: g.PredCross, MeasCross: g.MeasCross,
				})
		}
	}
	return out, nil
}

// algoRule names an algorithm sweep's record group in the Rule field,
// e.g. "Algo-allreduce/ring-bi".
func algoRule(collective string, a cost.Algo) string {
	return fmt.Sprintf("Algo-%s/%s", collective, a)
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
		pred, meas := fmt.Sprintf("%d", r.PredCross), fmt.Sprintf("%d", r.MeasCross)
		if r.PredCross == 0 {
			pred = "never"
		}
		if r.MeasCross == 0 {
			meas = "never"
		}
		out += fmt.Sprintf("%-28s %4d %12s %12s\n", r.Rule, r.P, pred, meas)
	}
	return out
}
