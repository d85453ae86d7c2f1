package exper

import (
	"fmt"

	"repro/internal/cost"
	"repro/internal/mpbackend"
)

// This file is the multi-process half of the algorithm-portfolio
// measurement: the same head-to-head sweep as NativeAlgos, but with the
// ranks as separate OS processes (package mpbackend), where every message
// is a real serialization through the kernel. That is the regime the
// paper's cost model assumes — tw > 0 — and where the bandwidth-oriented
// algorithms (rings, pipeline) actually overtake the butterfly, which
// they never do on the in-process backend with its by-reference sends.
//
// Any binary calling into this file must invoke mpbackend.MaybeWorker()
// first thing in main (or TestMain): the measurements re-execute the
// running binary to spawn ranks.

// MeasureCollectiveMP measures the wall-clock makespan in nanoseconds of
// one collective executed with the given portfolio algorithm across p
// rank processes: one process group runs a warm-up plus reps
// barrier-synchronized repetitions, each repetition's makespan is the
// maximum over ranks, and the minimum over the timed repetitions is
// returned — the same discipline as MeasureCollective, minus the shared
// address space. Inputs are the seeded blocks of the native sweep
// (seed 11), regenerated inside each rank.
func MeasureCollectiveMP(collective string, a cost.Algo, p, m, segments, reps int) (float64, error) {
	if reps < 1 {
		reps = 1
	}
	res, err := mpbackend.Run("collective", p, mpbackend.CollectiveParams{
		Collective: collective, Algo: string(a), Op: "add",
		M: m, Segments: segments, Reps: reps, Seed: 11,
	}, mpbackend.Options{})
	if err != nil {
		return 0, fmt.Errorf("exper: multiproc %s@%s (p=%d m=%d): %w", collective, a, p, m, err)
	}
	return mpbackend.MinMakespan(res)
}

// MultiProcAlgos measures every portfolio algorithm head-to-head against
// the butterfly across process boundaries — the multi-process rows of
// BENCH_native.json, marked Backend "multiproc". Shape and semantics
// match NativeAlgos exactly (both render SweepAlgos' groups). cfg.Ts/cfg.Tw
// should be the multi-process calibration's parameters, so the predicted
// crossovers are the ones the calibrated model would act on for this
// transport.
func MultiProcAlgos(cfg NativeAlgoConfig) ([]NativeBenchRecord, error) {
	return algoRecords("multiproc", cfg, MPAlgoMeasurer(cfg.Reps))
}

// MPAlgoMeasurer is the multi-process AlgoMeasurer: each side is one
// MeasureCollectiveMP job.
func MPAlgoMeasurer(reps int) AlgoMeasurer {
	return func(collective string, a cost.Algo, p, m, segments int) (bfNs, algNs float64, err error) {
		if bfNs, err = MeasureCollectiveMP(collective, cost.AlgoButterfly, p, m, 0, reps); err != nil {
			return 0, 0, err
		}
		algNs, err = MeasureCollectiveMP(collective, a, p, m, segments, reps)
		return bfNs, algNs, err
	}
}
