package core_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/chaos"
	"repro/internal/lang"
	"repro/internal/mpbackend"
	"repro/internal/rules"
	"repro/internal/term"
)

// sparseProgram builds a surface-syntax sparse program for machine size
// p, and the block size its conformance inputs take. The programs go
// through lang.Parse so the conformance run covers exactly the path the
// multi-process backend takes.
func sparseProgram(t *testing.T, kind string, p int, rng *rand.Rand) (term.Seq, int) {
	t.Helper()
	counts := make([]int, p)
	for i := range counts {
		counts[i] = rng.Intn(3) // zero-length blocks included
	}
	if term.SumCounts(counts) == 0 {
		counts[rng.Intn(p)] = 2
	}
	cs := make([]string, p)
	for i, c := range counts {
		cs[i] = fmt.Sprintf("%d", c)
	}
	list := strings.Join(cs, ",")
	src, m := map[string]string{
		"halo":       "halo(-1,1)",
		"halo-chain": "halo(1,2) ; halo(0,3)",
		"agv":        fmt.Sprintf("allgatherv(%s)", list),
		"rsv":        fmt.Sprintf("reduce_scatterv(+,%s)", list),
		"rsv-agv":    fmt.Sprintf("reduce_scatterv(max,%s) ; allgatherv(%s)", list, list),
	}[kind], 1
	if kind == "halo" {
		m = 2
	}
	prog, err := lang.Parse(src, nil)
	if err != nil {
		t.Fatalf("p=%d %s: parse: %v", p, kind, err)
	}
	return term.Compose(prog), m
}

// TestSparseConformance puts every sparse program shape through the
// conformance oracle's fault-free legs, at power-of-two and awkward
// machine sizes alike: the virtual machine and the native backend must
// return term.Eval's values bit for bit.
func TestSparseConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	kinds := []string{"halo", "halo-chain", "agv", "rsv", "rsv-agv"}
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8} {
		for _, kind := range kinds {
			prog, m := sparseProgram(t, kind, p, rng)
			if err := chaos.Check(chaos.Case{Prog: prog, P: p, M: m}); err != nil {
				t.Fatalf("p=%d %s: %v", p, kind, err)
			}
		}
	}
}

// TestSparseOptimizedConformance rewrites each sparse program with the
// full rule set (greedy engine, machine-size pinned): the optimized form
// goes through the oracle, and its semantics is the original's.
func TestSparseOptimizedConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	for _, p := range []int{2, 3, 4, 6} {
		for _, kind := range []string{"halo-chain", "rsv-agv"} {
			prog, m := sparseProgram(t, kind, p, rng)
			eng := rules.NewEngine()
			eng.Env.P = p
			opt, apps := eng.Optimize(prog)
			if len(apps) == 0 {
				t.Fatalf("p=%d %s: no rewrite fired on %s", p, kind, prog)
			}
			if err := chaos.Check(chaos.Case{Prog: term.Compose(opt), P: p, M: m}); err != nil {
				t.Fatalf("p=%d %s optimized to %s: %v", p, kind, opt, err)
			}
			in := mpbackend.ConformanceInputs(prog, p, m)
			if want, got := term.Eval(prog, in), term.Eval(opt, in); !algebra.EqualLists(got, want) {
				t.Fatalf("p=%d %s: optimized semantics %v, original %v", p, kind, got, want)
			}
		}
	}
}
