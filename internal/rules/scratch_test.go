package rules

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
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
		ins := v.lists(cfg)
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
// when the packed pass decides it: a rule instance answered from the memo
// and a program without applications. The parent of the pooled term.Scratch
// measured 196 and 96.
func TestCheckDerivationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	sr2 := term.Seq{term.Scan{Op: algebra.Mul}, term.Reduce{Op: algebra.Add}}
	opt, apps := singleRule(t, "SR2-Reduction", 0).Optimize(sr2)
	if len(apps) != 1 {
		t.Fatalf("applications = %v", apps)
	}
	zero := term.Seq{term.Bcast{}, term.Scan{Op: algebra.Add}, term.Map{F: term.PairFn}, term.Map{F: term.FirstFn}, term.Reduce{Op: algebra.Max, All: true}}
	for _, c := range []struct {
		name      string
		prog, opt term.Term
		apps      []Application
		bound     float64
	}{
		{"SR2-Reduction", sr2, opt, apps, 102},
		{"zero-application", zero, zero, nil, 2},
	} {
		v := new(Verifier)
		check := func() {
			if err := v.CheckDerivation(c.prog, c.opt, c.apps, plannerCfg); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		check() // draws the inputs and memoizes the instance
		allocs := testing.AllocsPerRun(100, check)
		if st := v.Stats(); st.Packed != st.Derivations || st.PerInput != 0 {
			t.Fatalf("%s: %+v, want the packed pass alone", c.name, st)
		}
		if allocs > c.bound {
			t.Errorf("%s: a warm derivation check allocates %.0f times, want ≤ %.0f", c.name, allocs, c.bound)
		}
		t.Logf("%s: %.0f allocations", c.name, allocs)
	}
}
