package rules

import (
	"sync"
	"testing"

	"repro/internal/algebra"
	"repro/internal/term"
)

// TestDerivedOperatorsAreShared: a rule hands out one derived operator per
// constructor and ingredients, named byte for byte as a freshly built one
// is, and a rewrite of a program seen before names the operator of the
// first rewrite.
func TestDerivedOperatorsAreShared(t *testing.T) {
	type built struct {
		op   any
		name string
	}
	for _, c := range []struct {
		ctor         string
		memo, afresh func(a, b *algebra.Op) built
	}{
		{"op_sr2",
			func(a, b *algebra.Op) built { o := opSR2(a, b); return built{o, o.Name} },
			func(a, b *algebra.Op) built { return built{nil, algebra.OpSR2(a, b).Name} }},
		{"op_sr",
			func(a, _ *algebra.Op) built { o := opSR(a, nil); return built{o, o.Name} },
			func(a, _ *algebra.Op) built { return built{nil, algebra.OpSR(a).Name} }},
		{"op_ss",
			func(a, _ *algebra.Op) built { o := opSS(a, nil); return built{o, o.Name} },
			func(a, _ *algebra.Op) built { return built{nil, algebra.OpSS(a).Name} }},
		{"op_comp_bs",
			func(a, _ *algebra.Op) built { o := opCompBS(a, nil); return built{o, o.Name} },
			func(a, _ *algebra.Op) built { return built{nil, algebra.OpCompBS(a).Name} }},
		{"op_comp_bss2",
			func(a, b *algebra.Op) built { o := opCompBSS2(a, b); return built{o, o.Name} },
			func(a, b *algebra.Op) built { return built{nil, algebra.OpCompBSS2(a, b).Name} }},
		{"op_comp_bss",
			func(a, _ *algebra.Op) built { o := opCompBSS(a, nil); return built{o, o.Name} },
			func(a, _ *algebra.Op) built { return built{nil, algebra.OpCompBSS(a).Name} }},
		{"op_br",
			func(a, _ *algebra.Op) built { o := opBR(a, nil); return built{o, o.Name} },
			func(a, _ *algebra.Op) built { return built{nil, algebra.OpBR(a).Name} }},
		{"op_bsr2",
			func(a, b *algebra.Op) built { o := opBSR2(a, b); return built{o, o.Name} },
			func(a, b *algebra.Op) built { return built{nil, algebra.OpBSR2(a, b).Name} }},
		{"op_bsr",
			func(a, _ *algebra.Op) built { o := opBSR(a, nil); return built{o, o.Name} },
			func(a, _ *algebra.Op) built { return built{nil, algebra.OpBSR(a).Name} }},
	} {
		for _, a := range []*algebra.Op{algebra.Add, algebra.Mul, algebra.Max} {
			for _, b := range []*algebra.Op{algebra.Add, algebra.Min} {
				first, again, fresh := c.memo(a, b), c.memo(a, b), c.afresh(a, b)
				if first.op != again.op {
					t.Errorf("%s(%s,%s): two operators for one set of ingredients", c.ctor, a.Name, b.Name)
				}
				if first.name != fresh.name {
					t.Errorf("%s(%s,%s) is named %q, a fresh one %q", c.ctor, a.Name, b.Name, first.name, fresh.name)
				}
			}
		}
	}

	e := singleRule(t, "SR2-Reduction", 0)
	prog := term.Seq{term.Scan{Op: algebra.Mul}, term.Reduce{Op: algebra.Add}}
	first, _ := e.Optimize(prog)
	again, _ := e.Optimize(prog)
	if x, y := derivedIn(first), derivedIn(again); len(x) != 1 || len(y) != 1 || x[0] != y[0] {
		t.Errorf("two rewrites of %s name the derived operators %v and %v, want one", prog, x, y)
	}
}

// TestDerivedOperatorsSharedAcrossGoroutines: two goroutines plan the same
// programs at once — search with selection, then the derivation check by one
// Verifier, as the planner shares it — and their plans name the same derived
// operators, pointer for pointer. Under -race it holds the operator memo and
// the Verifier's free list of scratches to being race-free.
func TestDerivedOperatorsSharedAcrossGoroutines(t *testing.T) {
	progs := missPool(5, 300)
	v := new(Verifier)
	var (
		ops   [2][]any
		wg    sync.WaitGroup
		start = make(chan struct{})
	)
	for g := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := NewCostGuidedEngine(daemonParams)
			e.Auto = true
			<-start
			for _, prog := range progs {
				opt, apps, _ := e.SearchOptimize(prog, SearchConfig{})
				if err := v.CheckDerivation(prog, opt, apps, plannerCfg); err != nil {
					t.Errorf("%s: %v", prog, err)
					return
				}
				ops[g] = append(ops[g], derivedIn(opt)...)
			}
		}()
	}
	close(start)
	wg.Wait()
	if len(ops[0]) == 0 || len(ops[0]) != len(ops[1]) {
		t.Fatalf("the two goroutines' plans name %d and %d derived operators", len(ops[0]), len(ops[1]))
	}
	for i := range ops[0] {
		if ops[0][i] != ops[1][i] {
			t.Fatalf("derived operator %d differs between the goroutines: %p and %p", i, ops[0][i], ops[1][i])
		}
	}
	t.Logf("%d derived operators, shared", len(ops[0]))
}

// derivedIn lists the derived operators the stages of t name, in order.
func derivedIn(t term.Term) []any {
	var ops []any
	for _, st := range term.Stages(t) {
		switch s := st.(type) {
		case term.Scan:
			if s.Op.Arity > 1 {
				ops = append(ops, s.Op)
			}
		case term.Reduce:
			if s.Op.Arity > 1 {
				ops = append(ops, s.Op)
			}
		case term.ScanBal:
			ops = append(ops, s.Op)
		case term.Comcast:
			ops = append(ops, s.Ops)
		case term.Iter:
			ops = append(ops, s.Op)
		}
	}
	return ops
}

// TestMemoizedHoldsAtMost256: after 1 000 distinct ingredient pairs, asking
// for them again newest first finds at most 256 built before: a memo holds
// no more, however many operators are defined.
func TestMemoizedHoldsAtMost256(t *testing.T) {
	builds := 0
	memo := memoized(func(a, b *algebra.Op) int { builds++; return builds })
	ops := make([]*algebra.Op, 1000)
	for i := range ops {
		ops[i] = new(algebra.Op)
		memo(ops[i], algebra.Add)
	}
	held := 0
	for i := len(ops) - 1; i >= 0; i-- {
		before := builds
		if memo(ops[i], algebra.Add); builds != before {
			break
		}
		held++
	}
	if held == 0 || held > 256 {
		t.Errorf("the memo held %d of 1 000 ingredient pairs, want 1 to 256", held)
	}
	t.Logf("%d held", held)
}
