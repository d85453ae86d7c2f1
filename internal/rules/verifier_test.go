package rules

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/lang"
	"repro/internal/term"
)

// plannerCfg is the config the planner of package serve verifies under.
var plannerCfg = VerifyConfig{Seed: 11, Trials: 4, Sizes: []int{1, 2, 4, 8}, BlockWords: 3, RelTol: 1e-9}

// sigmaN is Σn over the inputs plannerCfg draws: per size and trial one
// scalar list and one vector list.
const sigmaN = 2 * 4 * (1 + 2 + 4 + 8)

// referenceVerdict is the derivation check as it was written before the
// Verifier: every application through VerifyApplication, the config moved
// to power-of-two sizes from the first Local application on, then
// VerifyEquivalence of the whole programs — each evaluating both sides on
// freshly drawn inputs. A panic of the evaluation is a verdict too.
func referenceVerdict(t, opt term.Term, apps []Application, cfg VerifyConfig) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	for _, app := range apps {
		if err := VerifyApplication(app, cfg); err != nil {
			return err
		}
		if r, ok := ByName(app.Rule); ok && r.NeedsPow2() {
			cfg.Pow2Only = true
			cfg.Sizes = nil
		}
	}
	return VerifyEquivalence(t, opt, cfg)
}

// sameVerdict fails the test unless the Verifier and the reference agree
// on the derivation: both accept, or both refuse — with the same report,
// unless the reference panicked.
func sameVerdict(t *testing.T, v *Verifier, prog, opt term.Term, apps []Application, cfg VerifyConfig, what string) (refused bool) {
	t.Helper()
	want := referenceVerdict(prog, opt, apps, cfg)
	got := v.CheckDerivation(term.Stages(prog), term.Stages(opt), apps, cfg)
	if (got == nil) != (want == nil) {
		t.Fatalf("%s: %s => %s\n  verifier:  %v\n  reference: %v", what, prog, opt, got, want)
	}
	if want != nil && want.Error()[:6] != "panic:" && got.Error() != want.Error() {
		t.Fatalf("%s: %s => %s: reports differ\n  verifier:  %v\n  reference: %v", what, prog, opt, got, want)
	}
	return got != nil
}

// derivations optimizes prog every way the optimizer can — greedy and
// search, butterfly and portfolio pricing — plus with the exhaustive
// engine, which fires the rules the cost model holds back (the Local class
// among them, so the power-of-two switch is exercised).
func derivations(prog term.Seq, params cost.Params, f func(what string, opt term.Term, apps []Application)) {
	for _, auto := range []bool{false, true} {
		e := NewCostGuidedEngine(params)
		e.Auto = auto
		opt, apps := e.Optimize(prog)
		f(fmt.Sprintf("greedy auto=%t", auto), opt, apps)
		opt, apps, _ = e.SearchOptimize(prog, SearchConfig{})
		f(fmt.Sprintf("search auto=%t", auto), opt, apps)
	}
	e := NewEngine()
	e.Env.P = params.P
	opt, apps := e.Optimize(prog)
	f("exhaustive", opt, apps)
}

// overflowPrograms are the four programs of bench/README.md "Numeric
// contract" (its "first" is the parser's pi_1): source and plan overflow
// float64 in different places.
var overflowPrograms = []string{
	"map inc ; map inc ; scan(+) ; allreduce(*) ; map inc ; allreduce(+) ; bcast ; scan(*) ; reduce(+)",
	"scan(*) ; scan(*) ; reduce(*) ; gather ; scatter ; scan(+) ; bcast ; reduce(*) ; map inc",
	"scan(*) ; scan(*) ; reduce(*) ; map pair ; map pi_1 ; bcast ; allreduce(left) ; gather ; scatter ; gather ; scatter ; gather ; scatter ; allreduce(left) ; map inc",
	"scan(*) ; scan(*) ; map pair ; map pi_1 ; scan(*) ; allreduce(+) ; bcast ; reduce(+) ; bcast ; map pair ; map pi_1 ; gather ; scatter",
}

// TestVerifierVerdictEquivalence is what makes the Verifier's shortcuts
// safe: on every derivation the optimizer produces for a large sample of
// programs — one Verifier shared by all of them, so its memo and its input
// lists are warm — its verdict is the reference's.
func TestVerifierVerdictEquivalence(t *testing.T) {
	params := cost.Params{Ts: 1000, Tw: 1, M: 64, P: 64}
	exact := VerifyConfig{Seed: 5, Trials: 2}
	v := new(Verifier)
	refused := 0
	check := func(prog term.Seq, cfg VerifyConfig, params cost.Params) {
		derivations(prog, params, func(what string, opt term.Term, apps []Application) {
			if sameVerdict(t, v, prog, opt, apps, cfg, what) {
				refused++
			}
		})
	}

	rng := rand.New(rand.NewSource(18))
	for i := 0; i < 2000; i++ {
		prog := RandProgram(rng, 12)
		check(prog, plannerCfg, params)
		if i%8 == 0 {
			check(prog, exact, params)
		}
	}
	if st := v.Stats(); st.InstanceHits == 0 || st.ZeroApplication == 0 || st.TailsOnce == 0 || st.TailsTwice == 0 {
		t.Errorf("the dense sample left a path of the verifier unvisited: %+v", st)
	}

	sparse := []struct {
		p    int
		prog term.Seq
	}{
		{4, term.Seq{haloOf(1, 2), haloOf(0, 3)}},
		{4, term.Seq{haloOf(-1, 1), haloOf(-1, 1)}},
		{3, term.Seq{term.ReduceScatterV{Op: algebra.Add, Counts: []int{2, 0, 1}}, term.AllGatherV{Counts: []int{2, 0, 1}}}},
		{4, term.Seq{term.ReduceScatterV{Op: algebra.Max, Counts: []int{0, 0, 4, 0}}, term.AllGatherV{Counts: []int{0, 0, 4, 0}}, term.Map{F: IncTupFn}}},
		{4, term.Seq{haloOf(-1, 1), term.Map{F: IncTupFn}, haloOf(-1, 1)}}, // the committed greedy trap
	}
	for _, c := range sparse {
		check(c.prog, plannerCfg, cost.Params{Ts: 4, Tw: 1, M: 1, P: c.p})
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(5)
		check(RandSparseProgram(rng, p), plannerCfg, cost.Params{Ts: 4, Tw: 1, M: 1, P: p})
	}

	syms := lang.NewSymbols()
	syms.DefineFn(IncFn)
	before := refused
	for _, src := range overflowPrograms {
		prog, err := lang.Parse(src, syms)
		if err != nil {
			t.Fatal(err)
		}
		check(term.Compose(prog), plannerCfg, params)
	}
	if refused == before {
		t.Error("no overflow program was refused: the numeric-contract cases no longer reach a NaN")
	}
}

// handApp is a hand-built application of a rule no catalog knows (so no
// Local switch): the window before is claimed to equal after.
func handApp(pos int, before, after term.Seq) Application {
	return Application{Rule: "hand-built", Pos: pos, Before: before, After: after}
}

// bothRefuse fails the test unless the Verifier and the reference both
// refuse the derivation.
func bothRefuse(t *testing.T, v *Verifier, prog, opt term.Term, apps []Application, cfg VerifyConfig, what string) {
	t.Helper()
	if !sameVerdict(t, v, prog, opt, apps, cfg, what) {
		t.Fatalf("%s: %s => %s was accepted", what, prog, opt)
	}
}

// TestVerifierRefusesWrongDerivations is the negative half: each shortcut
// has a derivation that only stays refused if the shortcut is taken
// exactly as far as it is sound.
func TestVerifierRefusesWrongDerivations(t *testing.T) {
	scanAdd, scanMax := term.Scan{Op: algebra.Add}, term.Scan{Op: algebra.Max}
	inc := term.Map{F: IncFn}

	t.Run("wrong operator in the window", func(t *testing.T) {
		prog := term.Seq{inc, scanAdd, inc}
		app := handApp(1, term.Seq{scanAdd}, term.Seq{scanMax})
		bothRefuse(t, new(Verifier), prog, app.Rewrite(prog), []Application{app}, plannerCfg, "wrong window")
	})

	t.Run("corrupted right of the last application", func(t *testing.T) {
		// The window is a true SR-Reduction instance; what follows it in
		// opt is not what follows it in prog, so no tail is shared.
		e := NewEngine()
		prog := term.Seq{scanAdd, term.Reduce{Op: algebra.Add}, term.Bcast{}, scanAdd}
		opt, apps := e.Optimize(prog[:2])
		if len(apps) != 1 {
			t.Fatalf("applications = %v", apps)
		}
		v := new(Verifier)
		good := term.Compose(opt, term.Bcast{}, scanAdd)
		if sameVerdict(t, v, prog, good, apps, plannerCfg, "intact tail") {
			t.Fatal("the intact derivation was refused")
		}
		bad := term.Compose(opt, term.Bcast{}, scanMax)
		bothRefuse(t, v, prog, bad, apps, plannerCfg, "corrupted tail")
	})

	t.Run("wrong off powers of two only", func(t *testing.T) {
		// bcast ; reduce(+) is n·x, iter(op_br(+)) doubles ⌈log n⌉ times:
		// BR-Local's instance, equal exactly on power-of-two machines. Under
		// a name that is not Local the caller's Pow2Only decides. The
		// zeroing tail hides the difference from the end-to-end check, so
		// only the instance check can refuse — from the memo, if the key
		// forgot which sizes the verdict was for.
		e := singleRule(t, "BR-Local", 4)
		window := term.Seq{term.Bcast{}, term.Reduce{Op: algebra.Add}}
		_, apps := e.Optimize(window)
		if len(apps) != 1 {
			t.Fatalf("applications = %v", apps)
		}
		app := handApp(0, apps[0].Before, apps[0].After)
		zero := term.Map{F: &term.Fn{Name: "zero", F: func(algebra.Value) algebra.Value { return algebra.Scalar(0) }}}
		prog := term.Compose(window, zero)
		opt := app.Rewrite(prog)
		v := new(Verifier)
		pow2 := VerifyConfig{Seed: 3, Trials: 2, Pow2Only: true}
		if sameVerdict(t, v, prog, opt, []Application{app}, pow2, "power-of-two sizes") {
			t.Fatal("refused on power-of-two sizes, where the instance holds")
		}
		all := pow2
		all.Pow2Only = false
		bothRefuse(t, v, prog, opt, []Application{app}, all, "all sizes")
	})

	t.Run("a memoized failure stays a failure", func(t *testing.T) {
		prog := term.Seq{scanAdd}
		app := handApp(0, term.Seq{scanAdd}, term.Seq{scanMax})
		v := new(Verifier)
		bothRefuse(t, v, prog, app.Rewrite(prog), []Application{app}, plannerCfg, "first time")
		bothRefuse(t, v, prog, app.Rewrite(prog), []Application{app}, plannerCfg, "second time")
		if st := v.Stats(); st.InstanceChecks != 1 || st.InstanceHits != 1 {
			t.Fatalf("the second refusal did not come from the memo: %+v", st)
		}
	})

	t.Run("equal is not identical", func(t *testing.T) {
		// +0 == -0, so the window check passes and the two sides reach the
		// tail "equal"; 1/x tells them apart. The tail may be shared only
		// between bit-identical lists.
		fn := func(name string, f func(float64) float64) term.Map {
			return term.Map{F: &term.Fn{Name: name, F: func(v algebra.Value) algebra.Value {
				if vec, ok := v.(algebra.Vec); ok {
					v = algebra.Scalar(vec[0])
				}
				return algebra.Scalar(f(float64(v.(algebra.Scalar))))
			}}}
		}
		plus := fn("plus0", func(float64) float64 { return 0 })
		minus := fn("minus0", func(float64) float64 { return math.Copysign(0, -1) })
		recip := fn("recip", func(x float64) float64 { return 1 / x })
		prog := term.Seq{plus, recip}
		app := handApp(0, term.Seq{plus}, term.Seq{minus})
		// Compared exactly: a relative tolerance takes +Inf for -Inf.
		bothRefuse(t, new(Verifier), prog, app.Rewrite(prog), []Application{app}, VerifyConfig{Seed: 5, Trials: 2}, "signed zero")
	})
}

// counting returns a local stage that is the identity and counts the
// values it is applied to.
func counting(calls *int) term.Map {
	return term.Map{F: &term.Fn{Name: "count", F: func(v algebra.Value) algebra.Value {
		*calls++
		return v
	}}}
}

// TestVerifierEvaluationCounts pins how often a derivation check runs the
// program's stages. Before the Verifier every figure here was double: both
// sides were evaluated from the input on, also when they were one program.
func TestVerifierEvaluationCounts(t *testing.T) {
	scanAdd := term.Scan{Op: algebra.Add}

	t.Run("no application: the program once per input", func(t *testing.T) {
		calls := 0
		prog := term.Seq{counting(&calls), scanAdd}
		if err := new(Verifier).CheckDerivation(prog, prog, nil, plannerCfg); err != nil {
			t.Fatal(err)
		}
		if calls != sigmaN {
			t.Fatalf("map count ; scan(+) applied count %d times, want Σn = %d", calls, sigmaN)
		}
	})

	t.Run("declared elementwise: the program once per machine size", func(t *testing.T) {
		// The twin of the case above: every stage is now known to be
		// lane-wise, so the inputs of a size are evaluated as one list.
		calls := 0
		count := counting(&calls)
		count.F.Elementwise = true
		prog := term.Seq{count, scanAdd}
		v := new(Verifier)
		if err := v.CheckDerivation(prog, prog, nil, plannerCfg); err != nil {
			t.Fatal(err)
		}
		if sizes := 1 + 2 + 4 + 8; calls != sizes {
			t.Fatalf("map count ; scan(+) applied count %d times, want Σ sizes = %d", calls, sizes)
		}
		if st := v.Stats(); st.Packed != 1 || st.PerInput != 0 {
			t.Fatalf("stats = %+v, want the packed pass alone", st)
		}
	})

	t.Run("the prefix once for both sides", func(t *testing.T) {
		calls := 0
		prog := term.Seq{counting(&calls), scanAdd, term.Reduce{Op: algebra.Add}}
		opt, apps := NewEngine().Optimize(prog)
		if len(apps) != 1 || apps[0].Pos != 1 {
			t.Fatalf("applications = %v, want one at stage 1", apps)
		}
		if err := new(Verifier).CheckDerivation(term.Stages(prog), term.Stages(opt), apps, plannerCfg); err != nil {
			t.Fatal(err)
		}
		if calls != sigmaN {
			t.Fatalf("the stage left of the application ran %d times, want Σn = %d", calls, sigmaN)
		}
	})

	t.Run("a repeated instance is not evaluated again", func(t *testing.T) {
		// The counter sits inside the window: the instance check runs it
		// Σn times, the end-to-end check another Σn; the second derivation
		// with the same instance pays the end-to-end check only.
		calls := 0
		count := counting(&calls)
		same := term.Map{F: &term.Fn{Name: "same", F: func(v algebra.Value) algebra.Value { return v }}}
		app := handApp(0, term.Seq{count}, term.Seq{same})
		v := new(Verifier)
		for i, want := range []int{2 * sigmaN, 3 * sigmaN} {
			prog := term.Seq{count, scanAdd}
			if i == 1 {
				prog = term.Seq{count, term.Bcast{}}
			}
			if err := v.CheckDerivation(term.Stages(prog), term.Stages(app.Rewrite(prog)), []Application{app}, plannerCfg); err != nil {
				t.Fatal(err)
			}
			if calls != want {
				t.Fatalf("after derivation %d the window stage ran %d times, want %d", i+1, calls, want)
			}
		}
		if st := v.Stats(); st.InstanceChecks != 1 || st.InstanceHits != 1 {
			t.Fatalf("stats = %+v, want one check and one hit", st)
		}
	})
}

// TestVerifierMemoIsBounded: halo offsets are the client's to choose, so a
// client can name instances without end. The memo stays within its
// capacity and every derivation is still verified.
func TestVerifierMemoIsBounded(t *testing.T) {
	e := singleRule(t, "HH-Combine", 0)
	cfg := VerifyConfig{Seed: 1, Trials: 1, Sizes: []int{4}}
	v := new(Verifier)
	n := 10 * maxInstances
	if testing.Short() {
		n = maxInstances + 100
	}
	for i := 0; i < n; i++ {
		prog := term.Seq{haloOf(i, i+1), haloOf(-i, 1)}
		opt, apps := e.Optimize(prog)
		if len(apps) != 1 {
			t.Fatalf("%s: applications = %v", prog, apps)
		}
		if err := v.CheckDerivation(term.Stages(prog), term.Stages(opt), apps, cfg); err != nil {
			t.Fatalf("%s: %v", prog, err)
		}
		if len(v.instances) > maxInstances {
			t.Fatalf("memo holds %d instances after %d derivations, capacity %d", len(v.instances), i+1, maxInstances)
		}
	}
	if st := v.Stats(); st.InstanceChecks != uint64(n) || st.InstanceHits != 0 || st.Derivations != uint64(n) {
		t.Fatalf("%d distinct instances: stats %+v", n, st)
	}
	// A wrong instance is refused by a full memo too.
	prog := term.Seq{haloOf(1, 2), haloOf(0, 3)}
	app := handApp(0, prog, term.Seq{haloOf(1, 2)})
	if err := v.CheckDerivation(term.Stages(prog), term.Stages(app.Rewrite(prog)), []Application{app}, cfg); err == nil {
		t.Fatal("a full memo accepted a wrong instance")
	}
	if len(v.instances) != maxInstances {
		t.Fatalf("memo holds %d instances, capacity %d", len(v.instances), maxInstances)
	}
}

// TestConfigKeySizes: the key names Sizes as fmt.Sprint does — two configs
// share drawn inputs and instance verdicts exactly when they did — and
// costs one allocation, the string.
func TestConfigKeySizes(t *testing.T) {
	v := new(Verifier)
	for _, sizes := range [][]int{nil, {}, {4}, {1, 2, 4, 8}, {3, 5, 6, 7, 12, 1000000, 0, -2}, make([]int, 40)} {
		if got, want := v.key(VerifyConfig{Sizes: sizes}).sizes, fmt.Sprint(sizes); got != want {
			t.Errorf("key of sizes %v names them %q, want %q", sizes, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = v.key(plannerCfg) }); allocs > 1 {
		t.Errorf("Verifier.key allocates %.0f times, want ≤ 1", allocs)
	}
}
