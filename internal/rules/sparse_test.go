package rules

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/term"
)

// concatOp is vector concatenation — associative but not elementwise.
// It is the discriminating witness for RSAG-AllReduce's elementwise
// condition: slicing a concatenation and re-concatenating the slices is
// not the concatenation (compare AllGather's "++" in the coll tests).
var concatOp = &algebra.Op{
	Name: "++",
	Cost: 1,
	Fn: func(a, b algebra.Value) algebra.Value {
		av, aok := a.(algebra.Vec)
		bv, bok := b.(algebra.Vec)
		if !aok || !bok {
			return algebra.Undef{}
		}
		out := make(algebra.Vec, 0, len(av)+len(bv))
		out = append(out, av...)
		return append(out, bv...)
	},
}

func haloOf(offs ...int) term.Halo {
	return term.Halo{H: &term.Hood{Offsets: offs}}
}

// TestSparseRulesVerifyOnCanonicalShapes applies each message-combining
// rule to its canonical left-hand side and verifies the recorded
// application against the functional semantics.
func TestSparseRulesVerifyOnCanonicalShapes(t *testing.T) {
	cases := []struct {
		rule string
		p    int
		prog term.Seq
	}{
		{rule: "HH-Combine", p: 0, prog: term.Seq{haloOf(1, 2), haloOf(0, 3)}},
		// Offsets that collide mod small p: the combined neighborhood
		// {-2, 0, 0, 2} degenerates and the regroup must still restore
		// the nesting.
		{rule: "HH-Combine", p: 0, prog: term.Seq{haloOf(-1, 1), haloOf(-1, 1)}},
		{rule: "MH-Mobility", p: 0, prog: term.Seq{term.Map{F: IncFn}, haloOf(-1, 1)}},
		{rule: "RSAG-AllReduce", p: 3, prog: term.Seq{
			term.ReduceScatterV{Op: algebra.Add, Counts: []int{2, 0, 1}},
			term.AllGatherV{Counts: []int{2, 0, 1}},
		}},
		{rule: "RSAG-AllReduce", p: 4, prog: term.Seq{
			term.ReduceScatterV{Op: algebra.Max, Counts: []int{0, 0, 4, 0}},
			term.AllGatherV{Counts: []int{0, 0, 4, 0}},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.rule+"/"+tc.prog.String(), func(t *testing.T) {
			e := singleRule(t, tc.rule, tc.p)
			_, apps := e.Optimize(tc.prog)
			if len(apps) == 0 {
				t.Fatalf("%s did not fire on %s", tc.rule, tc.prog)
			}
			for _, app := range apps {
				if err := VerifyApplication(app, VerifyConfig{Seed: 11, Trials: 20}); err != nil {
					t.Fatalf("application failed verification: %v", err)
				}
			}
		})
	}
}

// TestSparsePropertyRandomPrograms is the randomized property harness:
// random sparse pipelines are optimized with the full rule set and every
// application plus the end-to-end rewrite is checked against the
// functional semantics. A failure is shrunk to a minimal failing
// pipeline before reporting.
func TestSparsePropertyRandomPrograms(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 20
	}
	for seed := 0; seed < iters; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		p := 2 + rng.Intn(5)
		prog := RandSparseProgram(rng, p)
		check := func(s term.Seq) error {
			e := NewEngine()
			e.Env.P = p
			opt, apps := e.Optimize(s)
			return new(Verifier).CheckDerivation(term.Stages(s), term.Stages(opt), apps, VerifyConfig{Seed: int64(seed), Trials: 6})
		}
		fails := func(s term.Seq) bool { return check(s) != nil }
		if fails(prog) {
			shrunk := shrinkProgram(prog, fails)
			err := check(shrunk)
			t.Fatalf("seed %d p=%d: optimization of %s fails verification; shrunk to %s: %v",
				seed, p, prog, shrunk, err)
		}
	}
}

// shrinkProgram removes stages one at a time while the predicate keeps
// failing, returning a minimal failing pipeline.
func shrinkProgram(prog term.Seq, fails func(term.Seq) bool) term.Seq {
	for {
		shrunkAny := false
		for i := range prog {
			if len(prog) == 1 {
				break
			}
			cand := make(term.Seq, 0, len(prog)-1)
			cand = append(cand, prog[:i]...)
			cand = append(cand, prog[i+1:]...)
			if fails(cand) {
				prog = cand
				shrunkAny = true
				break
			}
		}
		if !shrunkAny {
			return prog
		}
	}
}

// TestSparseSideConditionsAreRejected extends the negative suite to the
// message-combining rules: pattern-matching programs that violate a side
// condition must be left alone, and a control program with the condition
// satisfied must fire.
func TestSparseSideConditionsAreRejected(t *testing.T) {
	lists := [][]int{{1}, {2}, {0}}
	listsHalo := term.Halo{H: &term.Hood{Lists: lists}}
	counts := []int{2, 0, 1}
	rsv := func(op *algebra.Op, c []int) term.Term { return term.ReduceScatterV{Op: op, Counts: c} }
	agv := func(c []int) term.Term { return term.AllGatherV{Counts: c} }

	cases := []struct {
		rule string
		why  string
		p    int
		prog term.Seq
		ok   term.Seq
	}{
		{rule: "HH-Combine", why: "first neighborhood is per-rank (no offset arithmetic)", p: 3,
			prog: term.Seq{listsHalo, haloOf(0, 1)},
			ok:   term.Seq{haloOf(-1, 1), haloOf(0, 1)}},
		{rule: "HH-Combine", why: "second neighborhood is per-rank", p: 3,
			prog: term.Seq{haloOf(0, 1), listsHalo}},
		{rule: "RSAG-AllReduce", why: "counts vectors differ", p: 3,
			prog: term.Seq{rsv(algebra.Add, []int{2, 0, 1}), agv([]int{1, 0, 2})},
			ok:   term.Seq{rsv(algebra.Add, counts), agv(counts)}},
		{rule: "RSAG-AllReduce", why: "- is not associative", p: 3,
			prog: term.Seq{rsv(algebra.Sub, counts), agv(counts)}},
		{rule: "RSAG-AllReduce", why: "matmul is associative but not elementwise", p: 3,
			prog: term.Seq{rsv(algebra.MatMul, counts), agv(counts)}},
		{rule: "RSAG-AllReduce", why: "machine size does not match the counts", p: 4,
			prog: term.Seq{rsv(algebra.Add, counts), agv(counts)}},
	}
	for _, tc := range cases {
		t.Run(tc.rule+"/"+strings.ReplaceAll(tc.why, " ", "_"), func(t *testing.T) {
			e := singleRule(t, tc.rule, tc.p)
			out, apps := e.Optimize(tc.prog)
			if len(apps) != 0 {
				t.Fatalf("rule %s applied to %s despite %s: -> %s", tc.rule, tc.prog, tc.why, out)
			}
			if tc.ok != nil {
				if _, apps := singleRule(t, tc.rule, tc.p).Optimize(tc.ok); len(apps) == 0 {
					t.Fatalf("control program %s did not trigger %s — the negative case proves nothing",
						tc.ok, tc.rule)
				}
			}
		})
	}
}

// sparseCex is a committed shrunk counterexample refuting one forbidden
// sparse rewrite (testdata/sparse_counterexamples.json). Values holds
// the per-rank inputs: one number per rank for scalar cases, a row per
// rank for vector cases.
type sparseCex struct {
	Name   string      `json:"name"`
	P      int         `json:"p"`
	Shape  string      `json:"shape"` // "scalar" or "vec"
	Values [][]float64 `json:"values"`
}

// forcedWrongSparse constructs the right-hand sides the sparse side
// conditions forbid — what the rules would emit with the guard dropped.
func forcedWrongSparse() []struct {
	name     string
	p        int
	shape    string
	width    int
	lhs, rhs term.Seq
} {
	// A genuinely per-rank neighborhood (no single offset vector
	// realizes {1},{0},{0}). HH-Combine applied as if lists[0] were the
	// offset vector pretend-combines with halo(1) into offsets {1+1}.
	lists := [][]int{{1}, {0}, {0}}
	hhLhs := term.Seq{term.Halo{H: &term.Hood{Lists: lists}}, haloOf(1)}
	hhRhs := term.Seq{haloOf(2), term.Map{F: RegroupFn(1, 1)}}
	// RSAG-AllReduce on concatenation: the left side reconstructs rank
	// 0's vector, the right side concatenates everything.
	counts := []int{1, 1}
	rsagLhs := term.Seq{term.ReduceScatterV{Op: concatOp, Counts: counts}, term.AllGatherV{Counts: counts}}
	rsagRhs := term.Seq{term.Reduce{Op: concatOp, All: true}}
	return []struct {
		name     string
		p        int
		shape    string
		width    int
		lhs, rhs term.Seq
	}{
		{name: "HH-Combine/lists-as-offsets", p: 3, shape: "scalar", width: 1, lhs: hhLhs, rhs: hhRhs},
		{name: "RSAG-AllReduce/concat", p: 2, shape: "vec", width: 2, lhs: rsagLhs, rhs: rsagRhs},
	}
}

func cexInputs(shape string, vals [][]float64) []algebra.Value {
	in := make([]algebra.Value, len(vals))
	for i, row := range vals {
		if shape == "scalar" {
			in[i] = algebra.Scalar(row[0])
		} else {
			in[i] = append(algebra.Vec(nil), row...)
		}
	}
	return in
}

func refutes(lhs, rhs term.Seq, shape string, vals [][]float64) bool {
	l := term.Eval(lhs, cexInputs(shape, vals))
	r := term.Eval(rhs, cexInputs(shape, vals))
	if len(l) != len(r) {
		return true
	}
	for i := range l {
		if !algebra.EqualModuloUndef(l[i], r[i]) {
			return true
		}
	}
	return false
}

// shrinkCex greedily drives every input number to 0, then to 1, keeping
// each move that still refutes the rewrite.
func shrinkCex(lhs, rhs term.Seq, shape string, vals [][]float64) [][]float64 {
	for _, target := range []float64{0, 1} {
		for i := range vals {
			for j := range vals[i] {
				if vals[i][j] == target {
					continue
				}
				old := vals[i][j]
				vals[i][j] = target
				if !refutes(lhs, rhs, shape, vals) {
					vals[i][j] = old
				}
			}
		}
	}
	return vals
}

// TestSparseForcedWrongRewritesFailVerification checks the randomized
// verifier refutes each forbidden sparse rewrite, then shrinks a
// concrete counterexample and compares it against the committed witness
// in testdata/sparse_counterexamples.json (regenerate with
// UPDATE_SPARSE_CEX=1).
func TestSparseForcedWrongRewritesFailVerification(t *testing.T) {
	var got []sparseCex
	for _, tc := range forcedWrongSparse() {
		cfg := VerifyConfig{Seed: 13, Trials: 30, Sizes: []int{tc.p}, Gen: func(rng *rand.Rand, n int) []algebra.Value {
			vals := make([][]float64, n)
			for i := range vals {
				row := make([]float64, tc.width)
				for j := range row {
					row[j] = float64(rng.Intn(13) - 6)
				}
				vals[i] = row
			}
			return cexInputs(tc.shape, vals)
		}}
		if err := VerifyEquivalence(tc.lhs, tc.rhs, cfg); err == nil {
			t.Fatalf("%s: verifier accepted the forbidden rewrite %s -> %s", tc.name, tc.lhs, tc.rhs)
		}
		// Find and shrink a deterministic witness.
		rng := rand.New(rand.NewSource(13))
		var vals [][]float64
		for trial := 0; ; trial++ {
			if trial > 1000 {
				t.Fatalf("%s: no counterexample in 1000 trials", tc.name)
			}
			vals = make([][]float64, tc.p)
			for i := range vals {
				row := make([]float64, tc.width)
				for j := range row {
					row[j] = float64(rng.Intn(13) - 6)
				}
				vals[i] = row
			}
			if refutes(tc.lhs, tc.rhs, tc.shape, vals) {
				break
			}
		}
		vals = shrinkCex(tc.lhs, tc.rhs, tc.shape, vals)
		if !refutes(tc.lhs, tc.rhs, tc.shape, vals) {
			t.Fatalf("%s: shrinking lost the counterexample", tc.name)
		}
		got = append(got, sparseCex{Name: tc.name, P: tc.p, Shape: tc.shape, Values: vals})
	}

	path := filepath.Join("testdata", "sparse_counterexamples.json")
	if os.Getenv("UPDATE_SPARSE_CEX") != "" {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing committed counterexamples (run with UPDATE_SPARSE_CEX=1): %v", err)
	}
	var want []sparseCex
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("committed %d counterexamples, generated %d", len(want), len(got))
	}
	for i := range want {
		wj, _ := json.Marshal(want[i])
		gj, _ := json.Marshal(got[i])
		if string(wj) != string(gj) {
			t.Fatalf("counterexample %s drifted: committed %s, generated %s", want[i].Name, wj, gj)
		}
	}
}

// TestSparseCounterexamplesStillRefute replays the committed witnesses
// directly against the functional semantics, independent of the search
// that found them.
func TestSparseCounterexamplesStillRefute(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "sparse_counterexamples.json"))
	if err != nil {
		t.Fatalf("missing committed counterexamples: %v", err)
	}
	var cexes []sparseCex
	if err := json.Unmarshal(data, &cexes); err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]struct {
		lhs, rhs term.Seq
	})
	for _, tc := range forcedWrongSparse() {
		byName[tc.name] = struct{ lhs, rhs term.Seq }{tc.lhs, tc.rhs}
	}
	for _, c := range cexes {
		tc, ok := byName[c.Name]
		if !ok {
			t.Fatalf("committed counterexample %q matches no forced-wrong case", c.Name)
		}
		if !refutes(tc.lhs, tc.rhs, c.Shape, c.Values) {
			t.Fatalf("%s: committed witness %v no longer refutes the rewrite", c.Name, c.Values)
		}
	}
}

// TestSparseGreedyTrapSearchWins pins the MH-Mobility design point: the
// move alone never improves, so the greedy engine is stuck on
// halo ; map f ; halo — but the plan search passes through it, combines
// the halos, and lands on a strictly cheaper program.
func TestSparseGreedyTrapSearchWins(t *testing.T) {
	params := cost.Params{Ts: 4, Tw: 1, P: 4, M: 1}
	prog := term.Seq{haloOf(-1, 1), term.Map{F: IncTupFn}, haloOf(-1, 1)}

	e := NewCostGuidedEngine(params)
	_, greedyApps := e.Optimize(prog)
	if len(greedyApps) != 0 {
		t.Fatalf("greedy engine escaped the trap: %v", greedyApps)
	}
	opt, apps, stats := e.SearchOptimize(prog, SearchConfig{})
	if !stats.Improved() {
		t.Fatalf("search did not beat greedy on %s: greedy %.0f, best %.0f",
			prog, stats.GreedyCost, stats.BestCost)
	}
	if len(apps) == 0 {
		t.Fatal("search reported an improvement without applications")
	}
	if err := VerifyEquivalence(prog, opt, VerifyConfig{Seed: 9, Trials: 15}); err != nil {
		t.Fatalf("searched plan is not equivalent: %v", err)
	}
}
