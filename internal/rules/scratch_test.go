package rules

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/lang"
	"repro/internal/term"
)

// evalOrPanic is sc.Eval of prog on in, or the message it panicked with.
func evalOrPanic(sc *term.Scratch, prog term.Term, in []algebra.Value) (out []algebra.Value, panicked string) {
	defer func() {
		if r := recover(); r != nil {
			out, panicked = nil, fmt.Sprint(r)
		}
	}()
	return sc.Eval(prog, in), ""
}

// TestScratchEvalIsEval: evaluated in a term.Scratch, every program the
// planner's verification meets returns on every input it draws the lists
// term.Eval returns, bit for bit, or panics as term.Eval does. One scratch
// serves every case and is reset after each, so a buffer that outlived its
// evaluation, or one handed out twice within one, would show.
func TestScratchEvalIsEval(t *testing.T) {
	sc := new(term.Scratch)
	v := new(Verifier)
	dense := VerifyConfig{Seed: 7, Trials: 1, BlockWords: 3} // sizes 1–8 and 16
	check := func(prog term.Term, in []algebra.Value, what string) {
		t.Helper()
		want, wantPanic := evalOrPanic(nil, prog, in)
		got, gotPanic := evalOrPanic(sc, prog, in)
		if gotPanic != wantPanic || gotPanic == "" && !identical(got, want) {
			t.Fatalf("%s: %s on %v:\n  scratch:   %v %s\n  term.Eval: %v %s", what, prog, in, got, gotPanic, want, wantPanic)
		}
		sc.Reset()
	}
	// onInputs checks prog on the inputs verification draws for src:
	// scalar, block and packed lists, or the shapes src's counts demand.
	onInputs := func(src term.Seq, prog term.Term, what string) {
		t.Helper()
		cfg := shapeFor(src, dense)
		if cfg.Gen != nil {
			cfg.eachInput(func(s sample) error {
				check(prog, s.in, what)
				return nil
			})
			return
		}
		ins := v.lists(cfg, cfg.key())
		for _, list := range [][]sample{ins.drawn, ins.packed} {
			for _, s := range list {
				check(prog, s.in, what)
			}
		}
	}
	withRewritings := func(prog term.Seq, params cost.Params) {
		t.Helper()
		onInputs(prog, prog, "source")
		derivations(prog, params, func(what string, opt term.Term, _ []Application) {
			onInputs(prog, opt, what)
		})
	}

	programs, sparse := 2000, 500
	if testing.Short() {
		programs, sparse = 200, 50
	}
	params := cost.Params{Ts: 1000, Tw: 1, M: 64, P: 64}
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < programs; i++ {
		withRewritings(RandProgram(rng, 12), params)
	}
	for i := 0; i < sparse; i++ {
		p := 2 + rng.Intn(5)
		withRewritings(RandSparseProgram(rng, p), cost.Params{Ts: 4, Tw: 1, M: 1, P: p})
	}

	syms := lang.NewSymbols()
	syms.DefineFn(IncFn)
	for _, src := range overflowPrograms {
		prog, err := lang.Parse(src, syms)
		if err != nil {
			t.Fatal(err)
		}
		withRewritings(term.Compose(prog), params)
	}

	data, err := os.ReadFile(filepath.Join("testdata", "sparse_counterexamples.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cexes []sparseCex
	if err := json.Unmarshal(data, &cexes); err != nil {
		t.Fatal(err)
	}
	for _, tc := range forcedWrongSparse() {
		for _, c := range cexes {
			if c.Name == tc.name {
				check(tc.lhs, cexInputs(c.Shape, c.Values), c.Name+" lhs")
				check(tc.rhs, cexInputs(c.Shape, c.Values), c.Name+" rhs")
			}
		}
	}
}

// TestCheckDerivationAllocs pins what a warm derivation check allocates
// when the packed pass decides it: rule instances answered from the memo,
// their rewritings evaluated on the flat lanes, and a program without
// applications. The parent of the pooled term.Scratch measured 196 for
// SR2-Reduction and 96 without applications; the parent of the flat lanes
// 93, 163 for BS-Comcast, 27 for BR-Local and 2; the parent of the reused
// config key 5, 5, 5 and 2, where a check now allocates 3, 3, 3 and 1.
func TestCheckDerivationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	zero := term.Seq{term.Bcast{}, term.Scan{Op: algebra.Add}, term.Map{F: term.PairFn}, term.Map{F: term.FirstFn}, term.Reduce{Op: algebra.Max, All: true}}
	for _, c := range []struct {
		rule  string
		prog  term.Term
		bound float64
	}{
		{"SR2-Reduction", term.Seq{term.Scan{Op: algebra.Mul}, term.Reduce{Op: algebra.Add}}, 4},
		{"BS-Comcast", term.Seq{term.Bcast{}, term.Scan{Op: algebra.Add}}, 4},
		{"BR-Local", term.Seq{term.Bcast{}, term.Reduce{Op: algebra.Add}}, 4},
		{"", zero, 1},
	} {
		name, opt, apps := "zero-application", c.prog, []Application(nil)
		if c.rule != "" {
			name = c.rule
			if opt, apps = singleRule(t, c.rule, 0).Optimize(c.prog); len(apps) != 1 {
				t.Fatalf("%s: applications = %v", c.rule, apps)
			}
		}
		v := new(Verifier)
		check := func() {
			if err := v.CheckDerivation(c.prog, opt, apps, plannerCfg); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		check() // draws the inputs and memoizes the instance
		allocs := testing.AllocsPerRun(100, check)
		if st := v.Stats(); st.Packed != st.Derivations || st.PerInput != 0 {
			t.Fatalf("%s: %+v, want the packed pass alone", name, st)
		}
		if allocs > c.bound {
			t.Errorf("%s: a warm derivation check allocates %.0f times, want ≤ %.0f", name, allocs, c.bound)
		}
		t.Logf("%s: %.0f allocations", name, allocs)
	}
}

// sameAsEval fails the test unless prog, evaluated in sc on in, returns
// what term.Eval returns bit for bit, or panics as term.Eval does. sc is
// reset after.
func sameAsEval(t testing.TB, sc *term.Scratch, prog term.Term, in []algebra.Value, what string) {
	t.Helper()
	want, wantPanic := evalOrPanic(nil, prog, in)
	got, gotPanic := evalOrPanic(sc, prog, in)
	if gotPanic != wantPanic || gotPanic == "" && !identical(got, want) {
		t.Fatalf("%s: %s on %v:\n  scratch:   %v %s\n  term.Eval: %v %s", what, prog, in, got, gotPanic, want, wantPanic)
	}
	sc.Reset()
}

// TestScratchEvalAtTheFlatBoundary: a scratch keeps the results of a
// derived operator flat, so flat tuples reach every kind of stage — the
// ones with a flat kernel and the ones that see the boxed form — and every
// stage returns what term.Eval returns, or panics as it does, on scalar,
// block and packed inputs at every machine size from 1 to 16.
func TestScratchEvalAtTheFlatBoundary(t *testing.T) {
	sr2 := algebra.OpSR2(algebra.Mul, algebra.Add)
	// Two ways into the flat lanes: scan(op_sr2) leaves every position but
	// the first flat, allreduce(op_sr2) every position from n = 2 on.
	into := []term.Seq{
		{term.Map{F: term.PairFn}, term.Scan{Op: sr2}},
		{term.Map{F: term.PairFn}, term.Reduce{Op: sr2, All: true}},
	}
	swap := &term.IdxFn{Name: "swap#", F: func(i int, v algebra.Value) algebra.Value {
		if p, ok := v.(algebra.Tuple); ok && len(p) == 2 && i%2 == 1 {
			return algebra.Tuple{p[1], p[0]}
		}
		return v
	}}
	consumers := []term.Seq{
		{term.MapIdx{F: swap}},
		{term.Gather{}, term.Scatter{}},
		{term.Scatter{}}, // at n = 2 a pair is a list of two
		{term.Scan{Op: algebra.Add}},
		{term.Reduce{Op: algebra.Max, All: true}},
		{haloOf(-1, 1)},
		{term.AllGatherV{Counts: []int{2, 2}}},
		{term.ReduceScatterV{Op: algebra.Add, Counts: []int{1, 1}}},
		{term.Map{F: IncFn}},
		{term.Map{F: IncTupFn}},
		{term.Map{F: term.FirstFn}},
		{term.Map{F: term.PairFn}, term.Scan{Op: sr2}},
		{term.Scan{Op: sr2}, term.Map{F: term.FirstFn}},
		{term.Reduce{Op: sr2}},
		{term.Reduce{Op: algebra.OpSR(algebra.Add), Balanced: true}},
		{term.Reduce{Op: algebra.OpSR(algebra.Max), All: true, Balanced: true}},
		{term.Bcast{}, term.Map{F: term.FirstFn}},
		{term.Comcast{Ops: algebra.OpCompBS(algebra.Add)}},
		{term.Iter{Op: algebra.OpBSR(algebra.Add)}},
	}
	var programs []term.Seq
	for _, flat := range into {
		for _, c := range consumers {
			programs = append(programs, term.Compose(flat, c))
		}
		// Each catalog rule's right-hand side fed a flat state.
		for _, c := range ruleWindows {
			_, apps := singleRule(t, c.rule, c.p).Optimize(c.window)
			programs = append(programs, term.Compose(flat, term.Seq(apps[0].After)))
		}
	}
	// comcast and iter read the first position, and after a reduce the
	// others are undetermined.
	programs = append(programs,
		term.Seq{term.Reduce{Op: algebra.Add}, term.Comcast{Ops: algebra.OpCompBSS(algebra.Add)}},
		term.Seq{term.Reduce{Op: algebra.Add}, term.Iter{Op: algebra.OpBR(algebra.Add)}},
		term.Seq{term.Reduce{Op: algebra.Add}, term.Map{F: term.PairFn}, term.Iter{Op: algebra.OpBSR2(algebra.Mul, algebra.Add)}},
		term.Seq{term.Reduce{Op: algebra.Add}, term.Map{F: term.QuadrupleFn}, term.ScanBal{Op: algebra.OpSS(algebra.Add)}},
	)

	cfg := VerifyConfig{Seed: 13, Trials: 2, Sizes: []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, BlockWords: 3}
	ins := new(Verifier).lists(cfg, cfg.key())
	sc := new(term.Scratch)
	for _, list := range [][]sample{ins.drawn, ins.packed} {
		for _, s := range list {
			// The boundary is reached: a block input leaves allreduce(op_sr2)
			// a flat pair.
			if _, block := s.in[0].(algebra.Vec); block && s.n > 1 {
				if _, ok := sc.Eval(into[1], s.in)[0].(*algebra.FlatTuple); !ok {
					t.Fatalf("%s on %v is not a flat tuple in a scratch", into[1], s.in)
				}
				sc.Reset()
			}
			for _, prog := range programs {
				sameAsEval(t, sc, prog, s.in, "boundary")
			}
		}
	}
}

// fuzzInputs decodes an n-list from fuzz bytes: blocks of m words (scalars
// when m is 0), each word eight bytes' bits, so any float64 — NaN, ±Inf, −0,
// a denormal — can occur. Words past the bytes cycle through those.
func fuzzInputs(n, m int, data []byte) []algebra.Value {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -2.2e-308, 3, -6}
	word := 0
	next := func() float64 {
		defer func() { word++ }()
		if lo := 8 * word; lo+8 <= len(data) {
			return math.Float64frombits(binary.LittleEndian.Uint64(data[lo:]))
		}
		return specials[word%len(specials)]
	}
	in := make([]algebra.Value, n)
	for i := range in {
		if m == 0 {
			in[i] = algebra.Scalar(next())
			continue
		}
		v := make(algebra.Vec, m)
		for j := range v {
			v[j] = next()
		}
		in[i] = v
	}
	return in
}

// FuzzScratchEval: a random program and each of its rewritings, evaluated
// in a scratch on inputs decoded from the fuzzer's bytes, return what
// term.Eval returns, bit for bit, or panic as it does.
func FuzzScratchEval(f *testing.F) {
	bits := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(int64(1), uint8(8), uint8(3), bits(math.NaN(), math.Inf(1), math.Copysign(0, -1), 5e-324))
	f.Add(int64(2), uint8(5), uint8(0), bits(1e308, -1e308, 2, 0.5))
	f.Add(int64(3), uint8(16), uint8(1), []byte{})
	f.Add(int64(27), uint8(7), uint8(4), bits(-0.0, 1, math.Inf(-1), -5e-324, 6))
	params := cost.Params{Ts: 1000, Tw: 1, M: 64, P: 64}
	sc := new(term.Scratch)
	f.Fuzz(func(t *testing.T, seed int64, n, m uint8, data []byte) {
		prog := RandProgram(rand.New(rand.NewSource(seed)), 12)
		in := fuzzInputs(1+int(n%16), int(m%5), data)
		sameAsEval(t, sc, prog, in, "source")
		derivations(prog, params, func(what string, opt term.Term, _ []Application) {
			sameAsEval(t, sc, opt, in, what)
		})
	})
}

// TestScratchStaysUnderThePoolCap: one scratch serving 2 000 derivations
// drawn as the plan-miss workload draws them (bench/plan.go: distinct
// RandProgram(rng, 12) programs with at most one multiplying stage, plan
// search with selection on the daemon's default machine) never keeps more
// than maxScratchBytes, so the pool of CheckDerivation, which drops a
// larger one, keeps it.
func TestScratchStaysUnderThePoolCap(t *testing.T) {
	params := cost.Params{Ts: 1000, Tw: 1, M: 64, P: 64} // serve.DefaultConfig's machine
	for _, seed := range []int64{1, 2, 3} {
		v, sc := new(Verifier), new(term.Scratch)
		rng := rand.New(rand.NewSource(seed))
		seen := map[string]bool{}
		for checks := 0; checks < 2000; {
			prog := RandProgram(rng, 12)
			src := Canonical(prog)
			if seen[src] || strings.Count(src, "(*)") > 1 {
				continue
			}
			seen[src] = true
			e := NewCostGuidedEngine(params)
			e.Auto = true
			opt, apps, _ := e.SearchOptimize(prog, SearchConfig{})
			if err := v.check(prog, opt, apps, plannerCfg, sc); err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if sc.Bytes() > maxScratchBytes {
				t.Fatalf("seed %d: after %d derivations, the last %s => %s, the scratch keeps %d bytes, over the pool's %d",
					seed, checks+1, src, opt, sc.Bytes(), maxScratchBytes)
			}
			checks++
		}
		t.Logf("seed %d: the scratch keeps %d bytes", seed, sc.Bytes())
	}
}
