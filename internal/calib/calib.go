// Package calib closes the paper's predict-vs-measure loop: it measures
// a Host's cost-model parameters instead of assuming them, so the
// cost-guided optimizer of package rules decides with numbers that are
// true there. A calibration is Host × job × view: an exper.Host (native
// goroutines, OS processes over sockets, or the virtual machine) times
// the jobs, which are written once over coll.Comm (mpbackend.ProbeParams,
// CollectiveParams), and everything in this package is a view of those
// timings that never asks which Host it got.
//
// The §4.1 model prices a program by what it counts (cost.Line: message
// start-ups, words shipped, elementary operations), with ts and tw in
// multiples of one elementary operation. Calibration runs a small family
// of microbenchmarks whose counts are known exactly (Coef): a two-rank
// ping-pong (start-up and transfer, no compute), a pure local compute
// loop (the unit), and the three butterfly collectives bcast/reduce/scan
// — cost's equations (15)–(17) — at several group and block sizes
// (start-up, transfer and compute mixed in three different ratios, which
// is what makes the three parameters separable). A
// weighted least-squares fit over all samples (FitSamples) recovers
// TsNs, TwNs and TcNs — the start-up, per-word and per-operation costs
// in nanoseconds — and reports residuals; dividing by TcNs yields the
// dimensionless Ts and Tw that cost.Params expects. On the native Host a
// send hands over a reference and TwNs is indistinguishable from zero;
// across process boundaries every message is serialized, tw > 0 becomes
// measurable and the §4.1 crossovers appear for real (the "multiproc"
// section of CALIB_native.json); on the virtual Host the fit recovers the
// machine's own (ts, tw) exactly — the non-circular check of Coef.
//
// Timing methodology (shared with package backend): every probe run
// releases all ranks from a barrier-synchronized start, each rank
// records its own elapsed wall time, and the sample's time is the
// makespan — the last rank's finish. Each probe iterates its operation
// Rounds times inside one run to amortize timer resolution, and takes
// the minimum over the Host's Reps runs as the undisturbed estimate (the
// standard noise filter for wall-clock microbenchmarks).
//
// Validate then replays every optimization rule's unfused and fused
// form at a sweep of block sizes and compares the measured break-even
// block size with the one the calibrated closed forms predict — the
// whole report (fit, samples, per-rule crossovers with absolute and
// relative error) is emitted machine-readably by WriteReport; see the
// committed CALIB_native.json.
package calib

import (
	"fmt"
	"math"

	"repro/internal/cost"
	"repro/internal/exper"
	"repro/internal/mpbackend"
)

// Probe kinds. Each has a distinct (start-up, transfer, compute)
// coefficient shape — see Coef.
const (
	// ProbePingPong bounces a block between two ranks: pure start-up
	// plus transfer, no compute.
	ProbePingPong = "pingpong"
	// ProbeCompute folds a base operator over a block on one rank: pure
	// compute, no communication — the probe that pins down the unit.
	ProbeCompute = "compute"
	// ProbeBcast, ProbeReduce and ProbeScan run the butterfly
	// collectives: log p start-ups with 0, 1 and 2 elementary
	// operations per transferred word respectively.
	ProbeBcast  = "bcast"
	ProbeReduce = "reduce"
	ProbeScan   = "scan"
)

// Sample is one calibration observation: a probe run's cost-model
// coefficients and its measured wall-clock time.
type Sample struct {
	// Probe is the probe kind.
	Probe string `json:"probe"`
	// P and M are the group size and per-rank block size in words.
	P int `json:"p"`
	M int `json:"m"`
	// Rounds is how many times the run iterated the probe operation.
	Rounds int `json:"rounds"`
	// CoefTs, CoefTw and CoefC are the model coefficients of the whole
	// run: predicted ns = CoefTs·TsNs + CoefTw·TwNs + CoefC·TcNs.
	CoefTs float64 `json:"coef_ts"`
	CoefTw float64 `json:"coef_tw"`
	CoefC  float64 `json:"coef_c"`
	// Ns is the measured makespan in nanoseconds (minimum over the
	// configured repetitions).
	Ns float64 `json:"ns"`
}

// Coef returns the cost-model coefficients of one probe run of rounds
// iterations at group size p and block size m: the number of message
// start-ups, word transfers, and elementary operations that bound the
// run's wall time. The counts of the three collective probes are
// package cost's — equations (15)–(17) per word, as two cost.Lines:
// the critical path, whose group-size factor is cost.Params.LogP on
// non-power-of-two groups too, and the total work of all ranks.
//
// workers is the host's available parallelism (exper.Host.Workers; ≤ 0
// means unlimited). With workers ≥ p the coefficients are exactly the
// critical path. With fewer cores than ranks the ranks' concurrent phase
// work serializes, so each coefficient becomes
// max(critical path, total work ÷ workers). Charging the serialized
// counts keeps the fitted TsNs/TcNs the true single-stream costs on any
// host instead of silently inflating them.
func Coef(probe string, p, m, rounds, workers int) (a, b, c float64) {
	r, mf := float64(rounds), float64(m)
	perWord := cost.Params{P: p, M: 1}
	var path, work cost.Line
	switch probe {
	case ProbePingPong:
		// One round trip is two sequential one-way messages.
		return 2 * r, 2 * r * mf, 0
	case ProbeCompute:
		return 0, 0, r * mf
	case ProbeBcast:
		path, work = cost.BcastLine(perWord)
	case ProbeReduce:
		path, work = cost.ReduceLine(perWord)
	case ProbeScan:
		path, work = cost.ScanLine(perWord)
	default:
		panic(fmt.Sprintf("calib: unknown probe %q", probe))
	}
	w := float64(workers)
	if workers <= 0 {
		w = math.Inf(1)
	}
	bound := func(onPath, inAll float64) float64 {
		return math.Max(path.Rounds*onPath, work.Rounds*inAll/w)
	}
	return r * bound(path.Startups, work.Startups),
		r * bound(path.Words, work.Words) * mf,
		r * bound(path.Ops, work.Ops) * mf
}

// Config sizes a calibration run.
type Config struct {
	// Ps are the group sizes for the collective probes.
	Ps []int
	// Ms are the block sizes swept by every probe.
	Ms []int
	// Rounds is the base iteration count inside one run; individual
	// probes scale it to keep each run well above timer resolution.
	Rounds int
	// ValidateP is the group size of the rule-validation sweep (a power
	// of two, so the Local rules participate).
	ValidateP int
	// ValidateMs is the block-size sweep of the rule validation; its
	// last element caps the crossover search.
	ValidateMs []int
	// AlgoPs are the group sizes of the algorithm-portfolio validation
	// (ValidateAlgos); include a non-power-of-two to exercise the
	// rabenseifner fold path. Empty falls back to {ValidateP}.
	AlgoPs []int
}

// DefaultConfig is the full calibration: three group sizes, a
// seven-point geometric block-size sweep, and a rule validation on
// eight ranks.
func DefaultConfig() Config {
	return Config{
		Ps:         []int{2, 4, 8},
		Ms:         []int{1, 4, 16, 64, 256, 1024, 4096},
		Rounds:     32,
		ValidateP:  8,
		ValidateMs: []int{1, 4, 16, 64, 256, 1024, 4096},
		AlgoPs:     []int{7, 8},
	}
}

// QuickConfig is a seconds-scale smoke configuration for CI and tests:
// same probe shapes, minimal sweeps. The sweep reaches m = 1024 so the
// per-word coefficient stays identifiable on the multi-process
// transport — with small blocks only, scheduling noise can flip the
// fitted tw's sign, and the multiproc CI smoke asserts tw > 0.
func QuickConfig() Config {
	return Config{
		Ps:         []int{2, 4},
		Ms:         []int{1, 16, 256, 1024},
		Rounds:     8,
		ValidateP:  4,
		ValidateMs: []int{1, 64},
		AlgoPs:     []int{4},
	}
}

// Measure runs every probe of the configuration on h and returns the
// samples, ready for FitSamples. The compute probe only runs at block
// sizes of 64 words and up: below that the per-ApplyInto dispatch
// overhead dominates the per-word cost and would contaminate the fitted
// unit — in the collectives that overhead is a per-message effect and
// lands in TsNs, where it belongs. The compute probe's iteration count
// scales with 1/m so every block size executes enough operations to
// rise above timer resolution.
func Measure(h exper.Host, cfg Config) ([]Sample, error) {
	var out []Sample
	var err error
	probe := func(kind string, p, m, rounds int) {
		if err != nil {
			return
		}
		s := Sample{Probe: kind, P: p, M: m, Rounds: rounds}
		s.Ns, err = h.Probe(mpbackend.ProbeParams{Probe: kind, M: m, Rounds: rounds}, p)
		s.CoefTs, s.CoefTw, s.CoefC = Coef(kind, p, m, rounds, h.Workers)
		out = append(out, s)
	}
	compute := func(m int) { probe(ProbeCompute, 1, m, cfg.Rounds*max(16, 4096/m)) }
	computed := false
	for _, m := range cfg.Ms {
		probe(ProbePingPong, 2, m, cfg.Rounds*4)
		if m >= 64 {
			compute(m)
			computed = true
		}
	}
	if !computed {
		compute(64)
	}
	for _, p := range cfg.Ps {
		if p < 2 {
			continue
		}
		for _, m := range cfg.Ms {
			for _, kind := range []string{ProbeBcast, ProbeReduce, ProbeScan} {
				probe(kind, p, m, cfg.Rounds)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("calib: %w", err)
	}
	return out, nil
}

// Calibrate measures and fits in one call.
func Calibrate(h exper.Host, cfg Config) (Fit, []Sample, error) {
	samples, err := Measure(h, cfg)
	if err != nil {
		return Fit{}, nil, err
	}
	fit, err := FitSamples(samples)
	return fit, samples, err
}
