package mpbackend

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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
// executor ("program"). The two measurement jobs are written once, over
// coll.Comm (ProbeParams.Prepare, CollectiveParams.Prepare): the bodies here time
// them across process boundaries, and exper.Host times the very same
// operations on the native and virtual machines — a measurement is
// Host × job, and the only per-backend code is the launcher.

func init() {
	Register("probe", timedBody(func(ps ProbeParams) int { return ps.Reps }))
	Register("collective", timedBody(func(cs CollectiveParams) int { return cs.Reps }))
	Register("program", timedBody(func(ps ProgramParams) int { return max(ps.Reps, 1) }))
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
	v, rest, err := readValue(data, nil)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("mpbackend: %d trailing bytes after result value", len(rest))
	}
	return v, nil
}

// Job is a measurement job's parameters: Prepare validates them for a
// group of size ranks and returns the SPMD operation the group times —
// every rank runs it once per repetition from a barrier-synchronized
// start, over whatever communicator the backend underneath provides.
// Set-up (seeded inputs, accumulators) happens in Prepare, outside the
// timed region. The returned value is the rank's result where the job has
// one (the conformance hook), nil otherwise.
type Job interface {
	Prepare(size int) (func(c coll.Comm) algebra.Value, error)
}

// ProbeParams parameterizes the "probe" job: the calibration probe kinds
// of package calib. Rounds is the in-run iteration count (already scaled
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
		p.ScratchArena().Reset()
		p.Barrier()
		t0 := time.Now()
		op()
		ns = append(ns, float64(time.Since(t0).Nanoseconds()))
	}
	return ns
}

// timedBody is the measurement body of a job type: the job's operation
// under repTimed, reps(job) repetitions after the warm-up, the last
// repetition's value as the result.
func timedBody[J Job](reps func(J) int) Body {
	return func(p *Proc, raw json.RawMessage) (any, error) {
		var job J
		if err := json.Unmarshal(raw, &job); err != nil {
			return nil, err
		}
		if reps(job) < 1 {
			return nil, fmt.Errorf("mpbackend: a measurement job needs reps ≥ 1")
		}
		op, err := job.Prepare(p.Size())
		if err != nil {
			return nil, err
		}
		var out algebra.Value
		res := TimingResult{RepNs: repTimed(p, reps(job), func() { out = op(p) })}
		if out != nil {
			// Re-box before the arena-backed result is encoded: the final
			// repetition's buffers are still live (no Reset ran after it).
			res.Result = encodeResult(out)
		}
		return res, nil
	}
}

// Prepare is the probe family, one loop per kind. The compute probe both
// executes the in-place kernel — the path the collectives actually run,
// not the boxed reference — and charges the same work to the clock, so it
// prices the unit on wall-clock and virtual-time backends alike.
func (ps ProbeParams) Prepare(size int) (func(c coll.Comm) algebra.Value, error) {
	if ps.Rounds < 1 || ps.M < 1 {
		return nil, fmt.Errorf("mpbackend: probe needs rounds and m ≥ 1")
	}
	switch ps.Probe {
	case "pingpong":
		if size != 2 {
			return nil, fmt.Errorf("mpbackend: pingpong needs exactly 2 ranks, got %d", size)
		}
		v := algebra.Value(SeededBlock(rand.New(rand.NewSource(1)), ps.M))
		return func(c coll.Comm) algebra.Value {
			for i := 0; i < ps.Rounds; i++ {
				t1, t2 := c.NextTag(), c.NextTag()
				if c.Rank() == 0 {
					c.Send(1, v, t1)
					c.Recv(1, t2)
				} else {
					w := c.Recv(0, t1)
					c.Send(0, w, t2)
				}
			}
			return nil
		}, nil
	case "compute":
		rng := rand.New(rand.NewSource(2))
		v0, w := SeededBlock(rng, ps.M), SeededBlock(rng, ps.M)
		accs := make(algebra.Vec, size*ps.M) // one accumulator per rank
		return func(c coll.Comm) algebra.Value {
			acc := accs[c.Rank()*ps.M:][:ps.M]
			copy(acc, v0)
			v := algebra.Value(acc)
			for i := 0; i < ps.Rounds; i++ {
				v = algebra.Add.ApplyInto(v, v, w)
			}
			c.Compute(float64(ps.Rounds * ps.M))
			runtime.KeepAlive(v)
			return nil
		}, nil
	case "bcast", "reduce", "scan":
		blocks := SeededInputs(3, size, ps.M)
		round := map[string]func(c coll.Comm){
			"bcast":  func(c coll.Comm) { coll.Bcast(c, 0, blocks[c.Rank()]) },
			"reduce": func(c coll.Comm) { coll.Reduce(c, 0, algebra.Add, blocks[c.Rank()]) },
			"scan":   func(c coll.Comm) { coll.Scan(c, algebra.Add, blocks[c.Rank()]) },
		}[ps.Probe]
		return func(c coll.Comm) algebra.Value {
			for i := 0; i < ps.Rounds; i++ {
				round(c)
			}
			return nil
		}, nil
	}
	return nil, fmt.Errorf("mpbackend: unknown probe %q", ps.Probe)
}

// CollectiveParams parameterizes the "collective" job: one portfolio
// algorithm of one collective, run on seeded inputs — the measurement
// behind the algorithm sweep and the crossover validation.
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

// Prepare runs the collective with the named algorithm (coll.ReduceBy) on
// each rank's seeded block and returns the rank's result.
func (cs CollectiveParams) Prepare(size int) (func(c coll.Comm) algebra.Value, error) {
	if cs.M < 1 {
		return nil, fmt.Errorf("mpbackend: collective needs m ≥ 1")
	}
	op, err := opByName(cs.Op)
	if err != nil {
		return nil, err
	}
	if cs.Collective != cost.CollAllReduce && cs.Collective != cost.CollReduce {
		return nil, fmt.Errorf("mpbackend: unknown collective %q", cs.Collective)
	}
	in := SeededInputs(cs.Seed, size, cs.M)
	return func(c coll.Comm) algebra.Value {
		return coll.ReduceBy(c, op, in[c.Rank()], cs.Collective == cost.CollAllReduce, cost.Algo(cs.Algo), cs.Segments)
	}, nil
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

// Prepare parses the program and runs it with the backend-generic stage
// executor on the rank's conformance block.
func (ps ProgramParams) Prepare(size int) (func(c coll.Comm) algebra.Value, error) {
	if ps.M < 1 {
		return nil, fmt.Errorf("mpbackend: program needs m ≥ 1")
	}
	syms := lang.NewSymbols()
	syms.DefineFn(rules.IncFn)
	syms.DefineFn(rules.IncTupFn)
	t, err := lang.Parse(ps.Src, syms)
	if err != nil {
		return nil, fmt.Errorf("mpbackend: bad program: %v", err)
	}
	prog := term.Compose(t)
	in := ConformanceInputs(prog, size, ps.M)
	return func(c coll.Comm) algebra.Value { return core.RunStages(c, prog, in[c.Rank()]) }, nil
}
