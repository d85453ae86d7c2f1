package core

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll/sel"
	"repro/internal/cost"
	"repro/internal/rules"
	"repro/internal/term"
)

func vecInput(p, m int) []algebra.Value {
	in := make([]algebra.Value, p)
	for r := range in {
		b := make(algebra.Vec, m)
		for j := range b {
			b[j] = float64((r*5+j*3)%7 + 1)
		}
		in[r] = b
	}
	return in
}

// TestOptimizeOptsAuto: auto-selection populates the selections, scores
// with the portfolio model, and is never worse than the butterfly score.
func TestOptimizeOptsAuto(t *testing.T) {
	prog := NewProgram().Scan(algebra.Add).AllReduce(algebra.Add)
	m := Machine{Ts: 203.6, Tw: 0.007, P: 8, M: 4096}
	opt, err := prog.OptimizeOpts(m, OptimizeOptions{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(opt.Selection) == 0 {
		t.Fatal("auto optimization recorded no selections")
	}
	plain := prog.Optimize(m)
	if opt.EstimateAfter > plain.EstimateAfter {
		t.Fatalf("auto estimate %.0f exceeds butterfly estimate %.0f", opt.EstimateAfter, plain.EstimateAfter)
	}
	for _, s := range opt.Selection {
		if s.Predicted > s.Butterfly {
			t.Fatalf("selection %v predicted worse than butterfly", s)
		}
	}
	// The summary mentions the selection.
	if sum := opt.Summary(); len(sum) == 0 {
		t.Fatal("empty summary")
	}
}

// TestRunSelectedBitwise: an auto-optimized program runs the algorithms
// its estimate priced — visibly: past the calibrated crossover its virtual
// makespan differs from the same stages run without selections — and
// yields bit-identical results to the butterfly executor, on both
// backends.
func TestRunSelectedBitwise(t *testing.T) {
	for _, p := range []int{4, 7, 8} { // pow2 and folded
		prog := NewProgram().AllReduce(algebra.Add).Reduce(algebra.Add)
		mach := Machine{Ts: 203.6, Tw: 0.007, P: p, M: 4096}
		opt, err := prog.OptimizeOpts(mach, OptimizeOptions{Auto: true})
		if err != nil {
			t.Fatal(err)
		}
		nonBF := 0
		for _, s := range opt.Selection {
			if s.Algo != cost.AlgoButterfly {
				nonBF++
			}
		}
		if nonBF == 0 {
			t.Fatalf("p=%d: expected non-butterfly selections at m=4096, got %v", p, opt.Selection)
		}
		in := vecInput(p, 4096)
		plain, plainRes := FromTerm(opt.Program.Term()).Run(mach, in)
		selV, selRes := opt.Program.Run(mach, in)
		selN, _ := opt.Program.RunNative(p, in)
		if selRes.Makespan == plainRes.Makespan {
			t.Fatalf("p=%d: selected run took the butterfly's makespan %g — selections %v were not executed",
				p, plainRes.Makespan, opt.Selection)
		}
		for r := 0; r < p; r++ {
			if !algebra.Equal(plain[r], selV[r]) {
				t.Fatalf("p=%d rank %d: selected virtual differs from butterfly", p, r)
			}
			if !algebra.Equal(selV[r], selN[r]) {
				t.Fatalf("p=%d rank %d: selected native differs from selected virtual", p, r)
			}
		}
	}
}

// TestSelectionKeepsTheCombiningOrder: left is associative and not
// commutative, so its reductions must run an algorithm that combines in
// rank order. At cheap start-ups the selected allreduce(left) equals the
// semantics on both backends and never runs a ring, and reduce(left)
// still leaves the butterfly for the pipeline.
func TestSelectionKeepsTheCombiningOrder(t *testing.T) {
	pipelined := 0
	for _, p := range []int{7, 8} {
		for _, m := range []int{64, 1024, 4096} {
			mach := Machine{Ts: 1, Tw: 1, P: p, M: m}
			in := vecInput(p, m)
			for _, prog := range []Program{NewProgram().AllReduce(algebra.Left), NewProgram().Reduce(algebra.Left)} {
				opt, err := prog.OptimizeOpts(mach, OptimizeOptions{Auto: true})
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range opt.Selection {
					if s.Algo == cost.AlgoRing || s.Algo == cost.AlgoRingBi {
						t.Errorf("p=%d m=%d %s: selected %s", p, m, prog.String(), s)
					}
					if s.Algo == cost.AlgoPipeline {
						pipelined++
					}
				}
				want := term.Eval(prog.Term(), in)
				virt, _ := opt.Program.Run(mach, in)
				nat, _ := opt.Program.RunNative(p, in)
				if !algebra.EqualListsModuloUndef(virt, want) || !algebra.EqualListsModuloUndef(nat, want) {
					t.Fatalf("p=%d m=%d %s with %v: virtual or native result differs from the semantics", p, m, prog.String(), opt.Selection)
				}
			}
		}
	}
	if pipelined == 0 {
		t.Error("reduce(left) never selected the pipeline")
	}
}

// TestRunSelectedFallback: a selection whose shape requirement the
// run-time value cannot satisfy falls back to the butterfly rather than
// panicking — and still computes the right answer.
func TestRunSelectedFallback(t *testing.T) {
	prog := NewProgram().AllReduce(algebra.Add)
	mach := Machine{Ts: 203.6, Tw: 0.007, P: 8, M: 4096}
	selected := prog
	selected.sels = []sel.Selection{{Stage: 0, Collective: cost.CollAllReduce, Algo: cost.AlgoRabenseifner}}
	in := vecInput(8, 4) // 4 words < 8 ranks: rabenseifner cannot run
	got, _ := selected.Run(mach, in)
	want, _ := prog.Run(mach, in)
	for r := range want {
		if !algebra.Equal(got[r], want[r]) {
			t.Fatalf("rank %d: fallback result differs", r)
		}
	}
}

// TestRunSelectedEmptySelections: an auto optimization of a program with
// no eligible stage carries no selections and runs as the plain program;
// and a builder method on an optimized program, changing the stage list
// the selections index, drops them.
func TestRunSelectedEmptySelections(t *testing.T) {
	prog := NewProgram().Scan(algebra.Add)
	mach := Machine{Ts: 10, Tw: 1, P: 4, M: 8}
	in := vecInput(4, 8)
	opt, err := prog.OptimizeOpts(mach, OptimizeOptions{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if opt.Selection != nil {
		t.Fatalf("scan-only program got selections %v", opt.Selection)
	}
	got, _ := opt.Program.Run(mach, in)
	want, _ := prog.Run(mach, in)
	for r := range want {
		if !algebra.Equal(got[r], want[r]) {
			t.Fatalf("rank %d differs", r)
		}
	}
	big := Machine{Ts: 203.6, Tw: 0.007, P: 4, M: 4096}
	sel, err := NewProgram().AllReduce(algebra.Add).OptimizeOpts(big, OptimizeOptions{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Program.sels) == 0 {
		t.Fatal("auto-optimized program carries no selections")
	}
	if grown := sel.Program.Bcast(); grown.sels != nil {
		t.Fatalf("builder method kept selections %v", grown.sels)
	}
	if joined := sel.Program.Then(prog); joined.sels != nil {
		t.Fatalf("Then kept selections %v", joined.sels)
	}
}

// TestAutoSearchNeverWorse: the searched auto plan scores no worse than
// the greedy auto plan, and both verify.
func TestAutoSearchNeverWorse(t *testing.T) {
	prog := NewProgram().Scan(algebra.Mul).Reduce(algebra.Add)
	mach := Machine{Ts: 203.6, Tw: 0.007, P: 8, M: 4096}
	vcfg := rules.VerifyConfig{Seed: 5, BlockWords: 3}
	greedy, err := prog.OptimizeOpts(mach, OptimizeOptions{Auto: true, Verifier: new(rules.Verifier), VerifyConfig: vcfg})
	if err != nil {
		t.Fatal(err)
	}
	searched, err := prog.OptimizeOpts(mach, OptimizeOptions{Auto: true, Search: true, Verifier: new(rules.Verifier), VerifyConfig: vcfg})
	if err != nil {
		t.Fatal(err)
	}
	if searched.EstimateAfter > greedy.EstimateAfter {
		t.Fatalf("searched auto plan %.0f worse than greedy auto plan %.0f",
			searched.EstimateAfter, greedy.EstimateAfter)
	}
	if searched.Search == nil {
		t.Fatal("searched plan missing stats")
	}
}

// exact reports whether prog keeps "bitwise equal" a fair demand when a
// selection re-brackets and reorders a reduction: at most one stage over *
// (small-integer inputs then stay exactly representable through every
// chain).
func exact(prog term.Seq) bool {
	muls := 0
	for _, st := range prog {
		var op *algebra.Op
		switch s := st.(type) {
		case term.Scan:
			op = s.Op
		case term.Reduce:
			op = s.Op
		case term.ReduceScatterV:
			op = s.Op
		}
		if op == algebra.Mul {
			muls++
		}
	}
	return muls <= 1
}

// TestSelectionsIndexWhatTheExecutorRuns is the executor half of the
// single-walk property: over random dense and sparse programs, power-of-
// two and other machine sizes, and block sizes on both sides of every
// cost.Applicable threshold, the stage indices sel.ForTerm emits are the
// indices RunStages consumes — every selection addresses an eligible
// reduction of term.Stages — and running with selections is bitwise equal
// to running without and agrees with term.Eval, on the virtual and the
// native backend. Selections predicted at a block size the run-time value
// does not have (4096 words predicted, a handful fed) fall back to the
// butterfly instead of panicking.
func TestSelectionsIndexWhatTheExecutorRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(1207))
	ran := 0 // non-butterfly selections whose shape held at run time
	for _, p := range []int{4, 6, 7, 8} {
		for _, m := range []int{1, p - 1, p, 2*p - 1, 2 * p, 64} {
			for trial := 0; trial < 12; trial++ {
				var prog term.Seq
				var in []algebra.Value
				if trial%3 == 2 {
					// Sparse grammar, rewritten so RSAG-AllReduce can
					// surface an eligible all-reduction.
					raw := rules.RandSparseProgram(rng, p)
					in = rules.SparseInputs(raw, rng, p)
					eng := rules.NewEngine()
					eng.Env.P = p
					opt, _ := eng.Optimize(raw)
					prog = term.Compose(opt)
				} else {
					prog = rules.RandProgram(rng, 5)
					in = vecInput(p, m)
				}
				if !exact(prog) {
					continue
				}
				want := term.Eval(prog, in)
				mach := Machine{Ts: 1, Tw: 1, P: p, M: m} // cheap start-ups: alternatives win wherever they apply
				plain, _ := FromTerm(prog).Run(mach, in)
				if !algebra.EqualListsModuloUndef(plain, want) {
					t.Fatalf("p=%d m=%d %s: unselected run %v, semantics %v", p, m, prog, plain, want)
				}
				for _, predictedM := range []int{m, 4096} {
					params := mach.costParams()
					params.M = predictedM
					sels := sel.ForTerm(prog, params)
					stages := term.Stages(prog)
					for _, s := range sels {
						r, ok := stages[s.Stage].(term.Reduce)
						if !ok || !cost.SelectableReduce(r) {
							t.Fatalf("p=%d %s: selection %v addresses stage %v", p, prog, s, stages[s.Stage])
						}
						if v, isVec := in[0].(algebra.Vec); isVec && s.Algo != cost.AlgoButterfly &&
							cost.Applicable(s.Collective, s.Algo, cost.Params{P: p, M: len(v)}) {
							ran++
						}
					}
					selected := Program{t: prog, sels: sels}
					virt, _ := selected.Run(mach, in)
					nat, _ := selected.RunNative(p, in)
					if !algebra.EqualLists(virt, plain) {
						t.Fatalf("p=%d m=%d %s with %v:\n  selected   %v\n  unselected %v", p, m, prog, sels, virt, plain)
					}
					if !algebra.EqualLists(nat, virt) {
						t.Fatalf("p=%d m=%d %s with %v:\n  native  %v\n  virtual %v", p, m, prog, sels, nat, virt)
					}
				}
			}
		}
	}
	if ran < 50 {
		t.Fatalf("only %d non-butterfly selections applied at run time; the sweep no longer exercises the dispatch", ran)
	}
}

// TestRunRejectsShortInput: every run entry point, with and without
// selections, rejects an input list that is not one value per processor
// with the same documented panic — not an index out of range inside a
// rank goroutine.
func TestRunRejectsShortInput(t *testing.T) {
	const p = 4
	mach := Machine{Ts: 10, Tw: 1, P: p, M: 8}
	plain := NewProgram().AllReduce(algebra.Add)
	selected := plain
	selected.sels = []sel.Selection{{Stage: 0, Collective: cost.CollAllReduce, Algo: cost.AlgoRing}}
	short := vecInput(p-1, 8)
	for _, prog := range []struct {
		name string
		prog Program
	}{{"plain", plain}, {"selected", selected}} {
		for _, entry := range []struct {
			name string
			run  func()
		}{
			{"Run", func() { prog.prog.Run(mach, short) }},
			{"RunTraced", func() { prog.prog.RunTraced(mach, short) }},
			{"RunNative", func() { prog.prog.RunNative(p, short) }},
			{"RunOn", func() { prog.prog.RunOn(backend.New(p), short) }},
		} {
			t.Run(prog.name+"/"+entry.name, func(t *testing.T) {
				defer func() {
					const want = "core: input length 3 does not match machine size 4"
					if got := recover(); got != want {
						t.Fatalf("panic = %v, want %q", got, want)
					}
				}()
				entry.run()
			})
		}
	}
}
