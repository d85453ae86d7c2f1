package mpbackend

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/lang"
	"repro/internal/rules"
	"repro/internal/term"
)

// Built-in bodies: the calibration probes ("probe"), the algorithm
// portfolio measurement ("collective"), and the rule-grammar program
// executor ("program"). Together they let calib and exper re-run every
// table and figure across process boundaries without any new measurement
// code of their own — the same probes, the same collectives, the same
// timing discipline (barrier-synchronized repetitions, minimum taken by
// the caller), just on this backend.

func init() {
	Register("probe", probeBody)
	Register("collective", collectiveBody)
	Register("program", programBody)
}

// opByName resolves the operator names jobs may carry.
func opByName(name string) (*algebra.Op, error) {
	switch name {
	case "", "add":
		return algebra.Add, nil
	case "mul":
		return algebra.Mul, nil
	case "matmul":
		return algebra.MatMul, nil
	}
	return nil, fmt.Errorf("mpbackend: unknown operator %q", name)
}

// SeededBlock draws one m-word block of small integer entries (1..9, so
// long operator chains stay exactly representable) sequentially from rng —
// the one seeded block generator of the measurement layers (calib's
// probes, exper's sweeps, the bodies below).
func SeededBlock(rng *rand.Rand, m int) algebra.Vec {
	v := make(algebra.Vec, m)
	for i := range v {
		v[i] = float64(rng.Intn(9) + 1)
	}
	return v
}

// SeededInputs builds one SeededBlock per rank from one source, drawn
// sequentially so every rank process deterministically reconstructs the
// whole input list and picks its own — the in-process and multi-process
// measurements and conformance comparisons all run on these blocks.
func SeededInputs(seed int64, p, m int) []algebra.Value {
	rng := rand.New(rand.NewSource(seed))
	out := make([]algebra.Value, p)
	for i := range out {
		out[i] = SeededBlock(rng, m)
	}
	return out
}

// encodeResult serializes a value for the JSON result envelope using the
// wire codec.
func encodeResult(v algebra.Value) string {
	return base64.StdEncoding.EncodeToString(appendValue(nil, v))
}

// DecodeResult decodes a value a body encoded with the wire codec — the
// coordinator-side half of result comparison.
func DecodeResult(s string) (algebra.Value, error) {
	data, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	v, rest, err := readValue(data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("mpbackend: %d trailing bytes after result value", len(rest))
	}
	return v, nil
}

// ProbeParams parameterizes the "probe" body: the calib probe kinds run
// on this backend. Rounds is the in-run iteration count (already scaled
// by the caller), Reps the number of barrier-separated repetitions — one
// extra warm-up repetition is prepended and reported, so callers discard
// RepNs[0].
type ProbeParams struct {
	Probe  string `json:"probe"`
	M      int    `json:"m"`
	Rounds int    `json:"rounds"`
	Reps   int    `json:"reps"`
}

// TimingResult is the per-rank result of the measurement bodies: the
// rank's elapsed wall time per repetition, from the repetition's barrier
// release to its own finish. The coordinator computes each repetition's
// makespan as the maximum over ranks and takes the minimum over the
// non-warm-up repetitions — the same methodology as the in-process
// backends.
type TimingResult struct {
	RepNs []float64 `json:"rep_ns"`
	// Result carries the final value of the last repetition (wire codec,
	// base64) where the body has one — the conformance hook.
	Result string `json:"result,omitempty"`
}

// MinMakespan reduces the measurement bodies' per-rank timings to one
// number the way the in-process backends do: each repetition's makespan
// is the maximum over ranks (the barrier releases everyone together, so
// per-rank deltas share a start), the warm-up repetition RepNs[0] is
// discarded, and the minimum over the rest estimates the undisturbed run.
func MinMakespan(results []RankResult) (float64, error) {
	timings, err := Decode[TimingResult](results)
	if err != nil {
		return 0, err
	}
	if len(timings) == 0 {
		return 0, fmt.Errorf("mpbackend: no rank timings")
	}
	n := len(timings[0].RepNs)
	if n < 2 {
		return 0, fmt.Errorf("mpbackend: need a warm-up plus at least one timed repetition, got %d", n)
	}
	for r, tr := range timings {
		if len(tr.RepNs) != n {
			return 0, fmt.Errorf("mpbackend: rank %d reported %d repetitions, rank 0 reported %d", r, len(tr.RepNs), n)
		}
	}
	best := math.Inf(1)
	for rep := 1; rep < n; rep++ {
		makespan := 0.0
		for _, tr := range timings {
			if tr.RepNs[rep] > makespan {
				makespan = tr.RepNs[rep]
			}
		}
		if makespan < best {
			best = makespan
		}
	}
	return best, nil
}

// repTimed runs op once per repetition (plus one warm-up), each from a
// barrier-synchronized start, resetting the scratch arena before every
// repetition exactly like Machine.Run does on the native backend.
func repTimed(p *Proc, reps int, op func()) []float64 {
	ns := make([]float64, 0, reps+1)
	for rep := 0; rep <= reps; rep++ {
		p.arena.Reset()
		p.Barrier()
		t0 := time.Now()
		op()
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
	}
	return ns
}

// sink keeps the compute probe's result alive.
var sink algebra.Value

func probeBody(p *Proc, raw json.RawMessage) (any, error) {
	var ps ProbeParams
	if err := json.Unmarshal(raw, &ps); err != nil {
		return nil, err
	}
	if ps.Reps < 1 || ps.Rounds < 1 || ps.M < 1 {
		return nil, fmt.Errorf("mpbackend: probe needs reps, rounds and m ≥ 1")
	}
	var op func()
	switch ps.Probe {
	case "pingpong":
		if p.Size() != 2 {
			return nil, fmt.Errorf("mpbackend: pingpong needs exactly 2 ranks, got %d", p.Size())
		}
		v := algebra.Value(SeededBlock(rand.New(rand.NewSource(1)), ps.M))
		op = func() {
			for i := 0; i < ps.Rounds; i++ {
				t1, t2 := p.NextTag(), p.NextTag()
				if p.Rank() == 0 {
					p.Send(1, v, t1)
					p.Recv(1, t2)
				} else {
					w := p.Recv(0, t1)
					p.Send(0, w, t2)
				}
			}
		}
	case "compute":
		rng := rand.New(rand.NewSource(2))
		v0, w := SeededBlock(rng, ps.M), SeededBlock(rng, ps.M)
		acc := make(algebra.Vec, ps.M)
		op = func() {
			copy(acc, v0)
			v := algebra.Value(acc)
			for i := 0; i < ps.Rounds; i++ {
				v = algebra.Add.ApplyInto(v, v, w)
			}
			sink = v
		}
	case "bcast", "reduce", "scan":
		blocks := SeededInputs(3, p.Size(), ps.M)
		v := blocks[p.Rank()]
		probe := ps.Probe
		op = func() {
			for i := 0; i < ps.Rounds; i++ {
				switch probe {
				case "bcast":
					coll.Bcast(p, 0, v)
				case "reduce":
					coll.Reduce(p, 0, algebra.Add, v)
				case "scan":
					coll.Scan(p, algebra.Add, v)
				}
			}
		}
	default:
		return nil, fmt.Errorf("mpbackend: unknown probe %q", ps.Probe)
	}
	return TimingResult{RepNs: repTimed(p, ps.Reps, op)}, nil
}

// CollectiveParams parameterizes the "collective" body: one portfolio
// algorithm of one collective, run on seeded inputs — the measurement
// behind the multi-process algorithm sweep and the crossover validation.
type CollectiveParams struct {
	// Collective is cost.CollReduce or cost.CollAllReduce; Algo a
	// portfolio algorithm name (cost.Algo), "" or "butterfly" for the
	// §4.1 baseline.
	Collective string `json:"collective"`
	Algo       string `json:"algo"`
	Op         string `json:"op"`
	M          int    `json:"m"`
	Segments   int    `json:"segments"`
	Reps       int    `json:"reps"`
	Seed       int64  `json:"seed"`
}

func collectiveBody(p *Proc, raw json.RawMessage) (any, error) {
	var ps CollectiveParams
	if err := json.Unmarshal(raw, &ps); err != nil {
		return nil, err
	}
	if ps.Reps < 1 || ps.M < 1 {
		return nil, fmt.Errorf("mpbackend: collective needs reps and m ≥ 1")
	}
	op, err := opByName(ps.Op)
	if err != nil {
		return nil, err
	}
	in := SeededInputs(ps.Seed, p.Size(), ps.M)[p.Rank()]
	var out algebra.Value
	if ps.Collective != cost.CollAllReduce && ps.Collective != cost.CollReduce {
		return nil, fmt.Errorf("mpbackend: unknown collective %q", ps.Collective)
	}
	run := func() {
		out = coll.ReduceBy(p, op, in, ps.Collective == cost.CollAllReduce, cost.Algo(ps.Algo), ps.Segments)
	}
	ns := repTimed(p, ps.Reps, run)
	// Re-box before the arena-backed result is encoded: the final
	// repetition's buffers are still live (no Reset ran after it).
	return TimingResult{RepNs: ns, Result: encodeResult(out)}, nil
}

// ProgramParams parameterizes the "program" body: a rule-grammar program
// in surface syntax, run by the backend-generic stage executor on the
// conformance harness's deterministic inputs.
type ProgramParams struct {
	Src  string `json:"src"`
	M    int    `json:"m"`
	Reps int    `json:"reps"`
}

// confBlocks builds the conformance harnesses' deterministic blocks:
// rank r holds words(r) words, word j being (7r+3j) mod 5 + 1 — small
// integers, so long operator chains stay exactly representable and
// "bitwise equal" is a fair demand across backends.
func confBlocks(p int, words func(r int) int) []algebra.Value {
	in := make([]algebra.Value, p)
	for r := range in {
		b := make(algebra.Vec, words(r))
		for j := range b {
			b[j] = float64((r*7+j*3)%5 + 1)
		}
		in[r] = b
	}
	return in
}

// ConformanceInputs adapts the conformance blocks to the program: m words
// per rank (all a nil program gets), except that a leading scatter consumes a p-component list of
// them on rank 0, a leading reduce_scatterv a full ΣCounts-word vector
// per rank, and a leading allgatherv the ragged counts[r]-word blocks.
// Every conformance driver — the chaos harness and its collchaos command,
// the backend comparisons, the "program" body below — takes its inputs
// here, so a case reproduces identically in all of them.
func ConformanceInputs(prog term.Seq, p, m int) []algebra.Value {
	words := func(int) int { return m }
	if len(prog) > 0 {
		switch st := prog[0].(type) {
		case term.Scatter:
			in := make([]algebra.Value, p)
			in[0] = algebra.Tuple(confBlocks(p, words))
			for r := 1; r < p; r++ {
				in[r] = algebra.Scalar(float64(-r))
			}
			return in
		case term.ReduceScatterV:
			total := term.SumCounts(st.Counts)
			words = func(int) int { return total }
		case term.AllGatherV:
			words = func(r int) int {
				if r < len(st.Counts) {
					return st.Counts[r]
				}
				return 0
			}
		}
	}
	return confBlocks(p, words)
}

func programBody(p *Proc, raw json.RawMessage) (any, error) {
	var ps ProgramParams
	if err := json.Unmarshal(raw, &ps); err != nil {
		return nil, err
	}
	if ps.M < 1 {
		return nil, fmt.Errorf("mpbackend: program needs m ≥ 1")
	}
	if ps.Reps < 1 {
		ps.Reps = 1
	}
	syms := lang.NewSymbols()
	syms.DefineFn(rules.IncFn)
	syms.DefineFn(rules.IncTupFn)
	t, err := lang.Parse(ps.Src, syms)
	if err != nil {
		return nil, fmt.Errorf("mpbackend: bad program: %v", err)
	}
	prog := term.Compose(t)
	in := ConformanceInputs(prog, p.Size(), ps.M)[p.Rank()]
	var out algebra.Value
	ns := repTimed(p, ps.Reps, func() {
		out = core.RunStages(p, prog, in)
	})
	return TimingResult{RepNs: ns, Result: encodeResult(out)}, nil
}
