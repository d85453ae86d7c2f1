package rules

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/term"
)

// The packed pass of the Verifier rests on one property: a lane-wise stage
// list computes on the packed lists, lane for lane and bit for bit, what it
// computes on each drawn input. The tests of this file hold the stages the
// gate lets through to that property, the declarations to a probe of it,
// and the verdict to the per-input one wherever the property fails.

// lane cuts the words [lo, lo+w) out of every block of a packed value: the
// value the drawn input occupying those words would have produced, a Scalar
// when that input was one.
func lane(v algebra.Value, lo, w int, scalar bool) algebra.Value {
	switch x := v.(type) {
	case algebra.Vec:
		if lo+w > len(x) {
			return v // not a packed block: identical to no lane
		}
		if scalar {
			return algebra.Scalar(x[lo])
		}
		return x[lo : lo+w]
	case algebra.Tuple:
		out := make(algebra.Tuple, len(x))
		for i, c := range x {
			out[i] = lane(c, lo, w, scalar)
		}
		return out
	}
	return v
}

// eachLane calls f for every drawn input of lists with the packed list it
// is a lane of and the words it occupies there.
func eachLane(lists *inputLists, f func(packed, drawn sample, lo, w int, scalar bool)) {
	next := 0
	for _, p := range lists.packed {
		lo := 0
		for ; next < len(lists.drawn) && lists.drawn[next].n == p.n; next++ {
			d := lists.drawn[next]
			w, scalar := 1, true
			if d.n > 0 {
				if vec, ok := d.in[0].(algebra.Vec); ok {
					w, scalar = len(vec), false
				}
			}
			f(p, d, lo, w, scalar)
			lo += w
		}
	}
}

// lanesAgree fails the test unless evaluating the stages on the packed
// lists of cfg gives, in every lane, the bits that evaluating them on the
// lane's drawn input gives — or both evaluations panic.
func lanesAgree(t *testing.T, v *Verifier, stages []term.Term, cfg VerifyConfig, what string) {
	t.Helper()
	var of sample
	var out []algebra.Value
	var ill *IllTypedError
	eachLane(v.lists(cfg, cfg.key()), func(packed, drawn sample, lo, w int, scalar bool) {
		if lo == 0 {
			of = packed
			out, ill = evalStages(nil, stages, 0, packed.in)
		}
		want, wantIll := evalStages(nil, stages, 0, drawn.in)
		if (ill == nil) != (wantIll == nil) {
			t.Fatalf("%s: %s at p=%d trial %d: packed evaluation: %v, per input: %v", what, term.Seq(stages), drawn.n, drawn.trial, ill, wantIll)
		}
		if ill != nil {
			return
		}
		if len(out) != len(want) {
			t.Fatalf("%s: %s at p=%d: %d packed results, %d per input", what, term.Seq(stages), of.n, len(out), len(want))
		}
		for i := range want {
			if got := lane(out[i], lo, w, scalar); !identicalValue(got, want[i]) {
				t.Fatalf("%s: %s at p=%d trial %d, processor %d, words [%d,%d):\n  packed input:  %v\n  packed result: %v\n  lane:          %v\n  per input:     %v",
					what, term.Seq(stages), drawn.n, drawn.trial, i, lo, lo+w, of.in, out[i], got, want[i])
			}
		}
	})
}

// ruleWindows has a matching window for every rule ByName knows, with the
// machine size the rule's conditions want (0: any).
var ruleWindows = []struct {
	rule   string
	p      int
	window term.Seq
}{
	{"SR2-Reduction", 0, term.Seq{term.Scan{Op: algebra.Mul}, term.Reduce{Op: algebra.Add}}},
	{"SR2-Reduction", 0, term.Seq{term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Max, All: true}}},
	{"SR-Reduction", 0, term.Seq{term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Add}}},
	{"SR-Reduction", 0, term.Seq{term.Scan{Op: algebra.Max}, term.Reduce{Op: algebra.Max, All: true}}},
	{"SS2-Scan", 0, term.Seq{term.Scan{Op: algebra.Mul}, term.Scan{Op: algebra.Add}}},
	{"SS-Scan", 0, term.Seq{term.Scan{Op: algebra.Add}, term.Scan{Op: algebra.Add}}},
	{"BS-Comcast", 0, term.Seq{term.Bcast{}, term.Scan{Op: algebra.Left}}},
	{"BSS2-Comcast", 0, term.Seq{term.Bcast{}, term.Scan{Op: algebra.Mul}, term.Scan{Op: algebra.Add}}},
	{"BSS-Comcast", 0, term.Seq{term.Bcast{}, term.Scan{Op: algebra.Min}, term.Scan{Op: algebra.Min}}},
	{"BR-Local", 0, term.Seq{term.Bcast{}, term.Reduce{Op: algebra.Add}}},
	{"BSR2-Local", 0, term.Seq{term.Bcast{}, term.Scan{Op: algebra.Mul}, term.Reduce{Op: algebra.Add}}},
	{"BSR-Local", 0, term.Seq{term.Bcast{}, term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Add}}},
	{"CR-AllLocal", 0, term.Seq{term.Bcast{}, term.Reduce{Op: algebra.Add, All: true}}},
	{"RB-AllReduce", 0, term.Seq{term.Reduce{Op: algebra.Add}, term.Bcast{}}},
	{"AB-AllReduce", 0, term.Seq{term.Reduce{Op: algebra.Max, All: true}, term.Bcast{}}},
	{"BB-Bcast", 0, term.Seq{term.Bcast{}, term.Bcast{}}},
	{"GS-Id", 0, term.Seq{term.Gather{}, term.Scatter{}}},
	{"SG-Id", 0, term.Seq{term.Scatter{}, term.Gather{}}},
	{"BM-Mobility", 0, term.Seq{term.Bcast{}, term.Map{F: IncFn}}},
	{"MM-Local", 0, term.Seq{term.Map{F: term.PairFn}, term.Map{F: term.FirstFn}}},
	{"HH-Combine", 0, term.Seq{haloOf(-1, 1), haloOf(0, 3)}},
	{"MH-Mobility", 0, term.Seq{term.Map{F: IncTupFn}, haloOf(-1, 1)}},
	{"RSAG-AllReduce", 3, term.Seq{term.ReduceScatterV{Op: algebra.Add, Counts: []int{2, 0, 1}}, term.AllGatherV{Counts: []int{2, 0, 1}}}},
}

// TestVerifierLanesBitwise: every stage list the gate lets through — both
// sides of every derivation of a sample of generated programs, and the
// window and replacement of every rule — is lane-wise in fact. Every dense
// derivation passes the gate, so the packed pass is the planner's common
// path and not a corner of it.
func TestVerifierLanesBitwise(t *testing.T) {
	params := cost.Params{Ts: 1000, Tw: 1, M: 64, P: 64}
	allSizes := VerifyConfig{Seed: 5, Trials: 2, BlockWords: 2} // 3, 5, 6, 7: the one-sided cases of the balanced collectives
	v := new(Verifier)
	rng := rand.New(rand.NewSource(21))
	programs := 400
	if testing.Short() {
		programs = 60
	}
	for i := 0; i < programs; i++ {
		prog := RandProgram(rng, 12)
		if !laneWise(prog) {
			t.Fatalf("generated program %s does not pass the gate", prog)
		}
		lanesAgree(t, v, prog, plannerCfg, "source")
		lanesAgree(t, v, prog, allSizes, "source")
		derivations(prog, params, func(what string, opt term.Term, apps []Application) {
			if len(apps) == 0 {
				return
			}
			stages := term.Stages(opt)
			if !laneWise(stages) {
				t.Fatalf("%s: rewriting %s of %s does not pass the gate", what, opt, prog)
			}
			lanesAgree(t, v, stages, plannerCfg, what)
			lanesAgree(t, v, stages, allSizes, what)
		})
	}

	covered, gated := map[string]bool{}, 0
	for _, c := range ruleWindows {
		_, apps := singleRule(t, c.rule, c.p).Optimize(c.window)
		if len(apps) == 0 {
			t.Fatalf("%s did not fire on %s", c.rule, c.window)
		}
		covered[c.rule] = true
		for _, side := range [][]term.Term{apps[0].Before, apps[0].After} {
			if !laneWise(side) {
				continue
			}
			gated++
			lanesAgree(t, v, side, plannerCfg, c.rule)
			lanesAgree(t, v, side, allSizes, c.rule)
		}
	}
	for _, r := range AllWithExtensions() {
		if !covered[r.Name] {
			t.Errorf("no window for rule %s", r.Name)
		}
	}
	// Not lane-wise by what the code can see: the counts window of
	// RSAG-AllReduce.
	if want := 2*len(ruleWindows) - 1; gated != want {
		t.Errorf("%d rule sides pass the gate, want %d", gated, want)
	}
}

// wordFn lifts a function of one word over scalars, blocks and tuples of
// any nesting: elementwise in fact, and declared so.
func wordFn(name string, f func(float64) float64) *term.Fn {
	var apply func(v algebra.Value) algebra.Value
	apply = func(v algebra.Value) algebra.Value {
		switch x := v.(type) {
		case algebra.Scalar:
			return algebra.Scalar(f(float64(x)))
		case algebra.Vec:
			out := make(algebra.Vec, len(x))
			for i, w := range x {
				out[i] = f(w)
			}
			return out
		case algebra.Tuple:
			out := make(algebra.Tuple, len(x))
			for i, c := range x {
				out[i] = apply(c)
			}
			return out
		}
		return v
	}
	return &term.Fn{Name: name, Elementwise: true, F: apply}
}

// sumFn replaces every word of a block by the block's sum: a function of
// the block, not of its words.
var sumFn = &term.Fn{Name: "sum", F: func(v algebra.Value) algebra.Value {
	vec, ok := v.(algebra.Vec)
	if !ok {
		return v
	}
	sum := 0.0
	for _, w := range vec {
		sum += w
	}
	out := make(algebra.Vec, len(vec))
	for i := range out {
		out[i] = sum
	}
	return out
}}

// probe reports whether f acts lane by lane on the shapes verification
// inputs take on their way through a program: plain blocks, and tuples of
// them with nesting and undetermined components.
func probe(f *term.Fn, lists *inputLists) (err error) {
	apply := func(v algebra.Value) (out algebra.Value, panicked bool) {
		defer func() { panicked = recover() != nil }()
		return f.F(v), false
	}
	shapes := []func(algebra.Value) algebra.Value{
		func(v algebra.Value) algebra.Value { return v },
		func(v algebra.Value) algebra.Value { return algebra.Tuple{v, algebra.Tuple{v, algebra.Undef{}, v}} },
		func(v algebra.Value) algebra.Value { return algebra.Tuple{algebra.Tuple{v, v}, v, v} },
	}
	eachLane(lists, func(packed, drawn sample, lo, w int, scalar bool) {
		for k, shape := range shapes {
			for i := range drawn.in {
				got, gotPanic := apply(shape(packed.in[i]))
				want, wantPanic := apply(shape(drawn.in[i]))
				if err == nil && (gotPanic != wantPanic || !gotPanic && !identicalValue(lane(got, lo, w, scalar), want)) {
					err = fmt.Errorf("%s on shape %d of %v: lane [%d,%d) of %v is not %v", f.Name, k, packed.in[i], lo, lo+w, got, want)
				}
			}
		}
	})
	return err
}

// TestVerifierElementwiseDeclarationsProbe: Elementwise is a declaration,
// so it is probed like the registry's operator properties are — every
// function that carries it acts lane by lane, a function of the whole block
// does not — and a program with a stage outside the gate is verified one
// input at a time. The functions MM-Local, HH-Combine and MH-Mobility
// build declare it from their parts, so their derivations are verified on
// the packed lists.
func TestVerifierElementwiseDeclarationsProbe(t *testing.T) {
	lists := new(Verifier).lists(plannerCfg, plannerCfg.key())
	declared := []*term.Fn{term.PairFn, term.TripleFn, term.QuadrupleFn, term.FirstFn, IncFn, IncTupFn, wordFn("negate", func(x float64) float64 { return -x })}
	for _, c := range ruleWindows {
		if c.rule != "MM-Local" && c.rule != "HH-Combine" && c.rule != "MH-Mobility" {
			continue
		}
		opt, apps := singleRule(t, c.rule, c.p).Optimize(c.window)
		v := new(Verifier)
		if err := v.CheckDerivation(c.window, opt, apps, plannerCfg); err != nil {
			t.Fatalf("%s: %v", c.rule, err)
		}
		if st := v.Stats(); st.Packed != 1 || st.PerInput != 0 {
			t.Errorf("%s: %s => %s: %+v, want the packed pass alone", c.rule, c.window, opt, st)
		}
		for _, st := range term.Stages(opt) {
			if m, ok := st.(term.Map); ok {
				declared = append(declared, m.F)
			}
		}
	}
	if len(declared) != 10 {
		t.Fatalf("the three rules built %d functions, want 3", len(declared)-7)
	}
	for _, f := range declared {
		if !f.Elementwise {
			t.Errorf("%s is not declared elementwise", f.Name)
		}
		if err := probe(f, lists); err != nil {
			t.Errorf("declared elementwise, but: %v", err)
		}
	}
	if sumFn.Elementwise || probe(sumFn, lists) == nil {
		t.Error("the probe takes a block sum for elementwise")
	}

	same := &term.IdxFn{Name: "same#", F: func(_ int, v algebra.Value) algebra.Value { return v }}
	counts := []int{2, 0, 1}
	for _, c := range []struct {
		stage term.Term
		// evaluated reports that the semantics is defined on the inputs drawn.
		evaluated bool
	}{
		{term.Map{F: sumFn}, true},
		{term.MapIdx{F: same}, true},
		{term.Reduce{Op: algebra.MatMul}, false},
		{term.Scan{Op: algebra.OpSegmented(algebra.Add)}, false},
		{term.ReduceScatterV{Op: algebra.Add, Counts: counts}, true},
		{term.AllGatherV{Counts: counts}, true},
	} {
		if laneWise([]term.Term{c.stage}) {
			t.Errorf("%s passes the gate", c.stage)
		}
		calls := 0
		prog := term.Seq{counting(&calls), c.stage}
		v := new(Verifier)
		err := v.CheckDerivation(prog, prog, nil, plannerCfg)
		if (err == nil) != c.evaluated {
			t.Errorf("%s: %v", prog, err)
		}
		if st := v.Stats(); st.Packed != 0 || st.PerInput != 1 {
			t.Errorf("%s: %+v, want the per-input loop alone", prog, st)
		}
		if _, sparse := term.CountsStage(c.stage); c.evaluated && !sparse && calls != sigmaN {
			t.Errorf("%s applied count %d times, want Σn = %d", prog, calls, sigmaN)
		}
	}
}

// TestVerifierPackedVerdictIsPerInputVerdict is the negative half of the
// packed pass: whatever it cannot accept is decided by the drawn inputs one
// by one, with the reference's report.
func TestVerifierPackedVerdictIsPerInputVerdict(t *testing.T) {
	scanAdd := term.Scan{Op: algebra.Add}

	t.Run("an error in one lane", func(t *testing.T) {
		// After scan(+) some value occurs in one place only among all the
		// inputs plannerCfg draws. A function that is the identity except on
		// that value is wrong in exactly one word of one packed block; the raw
		// inputs lie in [-6, 6], so the instance check cannot see it.
		type place struct {
			s    sample
			word int
			seen int
		}
		places := map[float64]*place{}
		for _, s := range new(Verifier).lists(plannerCfg, plannerCfg.key()).drawn {
			for _, x := range term.Eval(scanAdd, s.in) {
				vec, ok := x.(algebra.Vec)
				if !ok {
					vec = algebra.Vec{float64(x.(algebra.Scalar))}
				}
				for j, w := range vec {
					if places[w] == nil {
						places[w] = &place{s: s, word: j}
					}
					places[w].seen++
				}
			}
		}
		var target float64
		var at *place
		for w, p := range places {
			if p.seen == 1 && p.word == 2 && (w < -6 || w > 6) && (at == nil || w < target) {
				target, at = w, p
			}
		}
		if at == nil {
			t.Fatal("no value occurs once, in the third word of a block: plannerCfg draws other inputs now")
		}
		same := term.Map{F: wordFn("same", func(x float64) float64 { return x })}
		bump := term.Map{F: wordFn("bump", func(x float64) float64 {
			if x == target {
				return x + 1
			}
			return x
		})}
		prog := term.Seq{scanAdd, same, term.Map{F: IncFn}}
		app := handApp(1, term.Seq{same}, term.Seq{bump})
		opt := app.Rewrite(prog)
		v := new(Verifier)
		bothRefuse(t, v, prog, opt, []Application{app}, plannerCfg, "one lane")
		err := v.CheckDerivation(prog, opt, []Application{app}, plannerCfg)
		if want := fmt.Sprintf("rules: semantic mismatch at p=%d trial %d:\n  input: %v\n", at.s.n, at.s.trial, at.s.in); err == nil || err.Error()[:len(want)] != want {
			t.Fatalf("report:\n%v\nwant it to begin:\n%s", err, want)
		}
		if st := v.Stats(); st.Packed != 0 || st.PerInput != 2 || st.InstanceChecks != 1 || st.InstanceHits != 1 {
			t.Fatalf("stats = %+v, want two derivations sent to the per-input loop over one instance check", st)
		}
	})

	t.Run("a constant-length vector", func(t *testing.T) {
		// Declared elementwise and not so: adding a 3-word constant fits a
		// scalar and a 3-word block, and panics on the 16-word packed block.
		// The panic is the packed pass's, not the program's.
		add123 := term.Map{F: &term.Fn{Name: "add123", Elementwise: true, F: func(v algebra.Value) algebra.Value {
			return algebra.Add.Apply(v, algebra.Vec{1, 2, 3})
		}}}
		prog := term.Seq{add123, scanAdd}
		v := new(Verifier)
		if sameVerdict(t, v, prog, prog, nil, plannerCfg, "constant vector") {
			t.Fatal("refused")
		}
		if st := v.Stats(); st.Packed != 0 || st.PerInput != 1 {
			t.Fatalf("stats = %+v, want the per-input loop", st)
		}
	})

	t.Run("an ill-typed program", func(t *testing.T) {
		prog := term.Seq{term.Bcast{}, term.Scatter{}}
		v := new(Verifier)
		err := v.CheckDerivation(prog, prog, nil, plannerCfg)
		ill, ok := err.(*IllTypedError)
		if !ok || ill.Stage != 1 {
			t.Fatalf("verdict %v, want an *IllTypedError at stage 1", err)
		}
		if st := v.Stats(); st.Packed != 0 || st.PerInput != 1 {
			t.Fatalf("stats = %+v, want the per-input loop", st)
		}
	})
}
