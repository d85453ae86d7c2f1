// Tests of the compile-once executor: what a run costs beyond its stages,
// what concurrent runs of one Program share, and what the stage marks say.
package core_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exper"
	"repro/internal/mpbackend"
	"repro/internal/rank"
	"repro/internal/rules"
	"repro/internal/term"
)

// execCorpus returns the benchmark's programs at p ranks — both sides of
// the 11 Table 1 pairs and of the sparse combining rules — each with an
// input list of the shape it demands, dense blocks of m words.
func execCorpus(t *testing.T, p, m int) (progs []core.Program, inputs [][]algebra.Value) {
	t.Helper()
	dense := mpbackend.SeededInputs(7, p, m)
	add := func(rule string, lhs term.Seq, in []algebra.Value) {
		rhs, err := exper.ApplyRule(rule, lhs, p)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, core.FromTerm(lhs), core.FromTerm(rhs))
		inputs = append(inputs, in, in)
	}
	for _, pat := range exper.Patterns() {
		add(pat.Rule, term.Compose(pat.LHS.Term()), dense)
	}
	ring := term.Halo{H: &term.Hood{Offsets: []int{-1, 1}}}
	add("HH-Combine", term.Seq{ring, ring}, dense)
	add("MH-Mobility", term.Seq{term.Map{F: rules.IncTupFn}, ring}, dense)
	counts := make([]int, p)
	for r := range counts {
		counts[r] = r % 3 // ragged, with empty blocks
	}
	rsag := term.Seq{term.ReduceScatterV{Op: algebra.Add, Counts: counts}, term.AllGatherV{Counts: counts}}
	add("RSAG-AllReduce", rsag, rules.SparseInputs(rsag, rand.New(rand.NewSource(7)), p))
	return progs, inputs
}

// TestRunOnAllocsIndependentOfStageCount pins the stage walk at zero
// allocations: on a warm machine a six-stage program allocates what a
// one-stage program does, so flattening, labels and the selection lookup
// are paid when the program compiles and never per run, rank or stage.
func TestRunOnAllocsIndependentOfStageCount(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	id := &term.Fn{Name: "id", F: func(v algebra.Value) algebra.Value { return v }}
	nm := backend.New(8)
	in := mpbackend.SeededInputs(7, nm.P, 16)
	allocs := func(stages int) float64 {
		prog := core.NewProgram()
		for i := 0; i < stages; i++ {
			prog = prog.Map(id)
		}
		prog.RunOn(nm, in) // compiles the program, grows the ranks' mark buffers
		return testing.AllocsPerRun(100, func() { prog.RunOn(nm, in) })
	}
	if one, six := allocs(1), allocs(6); one != six {
		t.Fatalf("RunOn allocates %.0f for 1 map stage and %.0f for 6: the stage walk allocates", one, six)
	}
}

// runOnFixed is what a warm RunOn allocates whatever the program: the
// output list, and the Result backend.Machine.Run builds.
const runOnFixed = 4

// TestWarmLocalStageAllocs pins what a warm native run at p = 8 allocates
// at m = 16 and m = 4096 for both sides of every benchmark pair, for the
// MH-Mobility trap and the plan the search makes of it, and for a flat
// result fed to a second tuple-valued scan: RunOn's fixed count and
// nothing more. A local function draws its blocks and tuple headers from
// the rank's arena (term.Apply), a halo its result tuple, a derived
// operator's flat result passes to the next stage, and to its operator,
// unboxed, and π₁ of it is a view boxed once; so the one boxing
// left is the stage loop's, of a flat tuple that leaves the run — and
// every program here ends in a block.
func TestWarmLocalStageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const p = 8
	ring := term.Halo{H: &term.Hood{Offsets: []int{-1, 1}}}
	trap := term.Seq{ring, term.Map{F: rules.IncTupFn}, ring}
	sr2 := algebra.OpSR2(algebra.Mul, algebra.Add)
	chained := term.Seq{term.Map{F: term.PairFn}, term.Scan{Op: sr2}, term.Scan{Op: sr2}, term.Map{F: term.FirstFn}}
	nm := backend.New(p)
	for _, m := range []int{16, 4096} {
		plan, apps, _ := rules.NewCostGuidedEngine(cost.Params{Ts: 1000, Tw: 1, P: p, M: m}).SearchOptimize(trap, rules.SearchConfig{})
		if len(apps) == 0 {
			t.Fatalf("m=%d: the plan search left the MH-Mobility trap unchanged", m)
		}
		progs, inputs := execCorpus(t, p, m)
		dense := mpbackend.SeededInputs(1, p, m)
		progs = append(progs, core.FromTerm(trap), core.FromTerm(plan), core.FromTerm(chained))
		inputs = append(inputs, dense, dense, dense)
		for i, prog := range progs {
			prog.RunOn(nm, inputs[i]) // compiles the program, grows the arenas
			if got := testing.AllocsPerRun(200, func() { prog.RunOn(nm, inputs[i]) }); got != runOnFixed {
				t.Errorf("m=%d: %s: %.0f allocs per warm run, want %d", m, prog, got, runOnFixed)
			}
		}
	}
}

// unmarked is a native rank whose stage marks nobody records: the view a
// multi-process rank, RunStages' hot path, has of itself.
type unmarked struct{ *backend.Proc }

func (u unmarked) Caps() rank.Caps {
	c := u.Proc.Caps()
	c.Mark = nil
	return c
}

// TestRunStagesAllocsIndependentOfStageCount is the raw-term entry's
// counterpart: RunStages keeps no compilation, so on a warm rank that
// records no marks a flat six-stage term allocates what a one-stage term
// does, and both what an empty body does — nothing per call, rank or stage.
func TestRunStagesAllocsIndependentOfStageCount(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	id := &term.Fn{Name: "id", F: func(v algebra.Value) algebra.Value { return v }}
	nm := backend.New(8)
	in := mpbackend.SeededInputs(7, nm.P, 16)
	allocs := func(body func(*backend.Proc)) float64 {
		nm.Run(body)
		return testing.AllocsPerRun(100, func() { nm.Run(body) })
	}
	stages := func(n int) func(*backend.Proc) {
		seq := make(term.Seq, n)
		for i := range seq {
			seq[i] = term.Map{F: id}
		}
		var prog term.Term = seq
		return func(pr *backend.Proc) { core.RunStages(unmarked{pr}, prog, in[pr.Rank()]) }
	}
	empty, one, six := allocs(func(*backend.Proc) {}), allocs(stages(1)), allocs(stages(6))
	if one != six || one != empty {
		t.Fatalf("RunStages allocates %.0f for 1 map stage and %.0f for 6, an empty body %.0f: the raw-term entry allocates",
			one, six, empty)
	}
}

// TestStagesOfComposedSeqAllocFree: term.Stages hands back a Seq that is
// already flat — every Program's — instead of copying it.
func TestStagesOfComposedSeqAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var prog term.Term = term.Compose(term.Bcast{}, term.Seq{term.Scan{Op: algebra.Mul}, term.Scan{Op: algebra.Add}})
	if allocs := testing.AllocsPerRun(100, func() { term.Stages(prog) }); allocs != 0 {
		t.Fatalf("term.Stages of a composed Seq: %.0f allocs, want 0", allocs)
	}
}

// TestProgramTermAllocFree: a Program keeps the term.Term it was built
// with, so Term — which a multi-process rank body calls once per rank and
// program — boxes nothing, the empty program's included.
func TestProgramTermAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var sink term.Term
	for _, prog := range []core.Program{
		core.NewProgram(),
		core.NewProgram().Scan(algebra.Mul).Reduce(algebra.Add),
		core.FromTerm(term.Seq{term.Bcast{}, term.Seq{term.Scan{Op: algebra.Add}}}),
	} {
		if allocs := testing.AllocsPerRun(100, func() { sink = prog.Term() }); allocs != 0 {
			t.Errorf("%s: Term allocates %.0f, want 0", prog, allocs)
		}
		if _, ok := sink.(term.Seq); !ok {
			t.Errorf("%s: Term returned %T, want a term.Seq", prog, sink)
		}
	}
}

// TestConcurrentRunsShareOneCompilation: copies of one Program value run
// at the same time on two machines — their first runs racing to compile —
// and every run equals, bit for bit, a run of its own on a third.
func TestConcurrentRunsShareOneCompilation(t *testing.T) {
	const p = 8
	progs, inputs := execCorpus(t, p, 16)
	auto, err := progs[0].OptimizeOpts(core.Machine{Ts: 1000, Tw: 1, P: p, M: 16}, core.OptimizeOptions{Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	progs, inputs = append(progs, auto.Program), append(inputs, inputs[0]) // one that carries selections
	for i, prog := range progs {
		want, _ := prog.RunNative(p, inputs[i])
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(prog core.Program) {
				defer wg.Done()
				nm := backend.New(p)
				for run := 0; run < 3; run++ {
					if got, _ := prog.RunOn(nm, inputs[i]); !algebra.EqualLists(got, want) {
						t.Errorf("%s, run %d: got %v, want %v", prog, run, got, want)
					}
				}
			}(prog)
		}
		wg.Wait()
	}
}

// TestNativeMarksAreStageStrings: the pre-rendered labels are what the
// stage loop used to render on every rank of every run — each rank marks
// every stage, in order, with stage.String().
func TestNativeMarksAreStageStrings(t *testing.T) {
	const p = 8
	progs, inputs := execCorpus(t, p, 16)
	nm := backend.New(p)
	kinds := map[string]bool{}
	for i, prog := range progs {
		stages := term.Stages(prog.Term())
		for _, s := range stages {
			kinds[fmt.Sprintf("%T", s)] = true
		}
		for run := 0; run < 2; run++ { // the compiling run and a warm one
			_, res := prog.RunOn(nm, inputs[i])
			for r, marks := range res.Marks {
				if len(marks) != len(stages) {
					t.Fatalf("%s: rank %d marked %d stages, want %d", prog, r, len(marks), len(stages))
				}
				for k, mk := range marks {
					if mk.Label != stages[k].String() {
						t.Errorf("%s: rank %d stage %d marked %q, want %q", prog, r, k, mk.Label, stages[k])
					}
				}
			}
		}
	}
	// The corpus is the point: a stage kind it loses goes unchecked.
	for _, kind := range []string{"term.Map", "term.Scan", "term.ScanBal", "term.Reduce", "term.Bcast",
		"term.Comcast", "term.Iter", "term.Halo", "term.AllGatherV", "term.ReduceScatterV"} {
		if !kinds[kind] {
			t.Errorf("the corpus has no %s stage", kind)
		}
	}
}
