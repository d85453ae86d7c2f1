package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/lang"
	"repro/internal/rules"
	"repro/internal/term"
)

// sparseProgram builds a surface-syntax sparse program for machine size
// p, together with matching inputs. The programs go through lang.Parse so
// the conformance run covers exactly the path the multi-process backend
// takes.
func sparseProgram(kind string, p int, rng *rand.Rand) (string, []algebra.Value) {
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
	total := term.SumCounts(counts)
	vec := func(n int) algebra.Vec {
		v := make(algebra.Vec, n)
		for j := range v {
			v[j] = float64(rng.Intn(19) - 9)
		}
		return v
	}
	switch kind {
	case "halo":
		in := make([]algebra.Value, p)
		for i := range in {
			in[i] = vec(2)
		}
		return "halo(-1,1)", in
	case "halo-chain":
		in := make([]algebra.Value, p)
		for i := range in {
			in[i] = vec(1)
		}
		return "halo(1,2) ; halo(0,3)", in
	case "agv":
		in := make([]algebra.Value, p)
		for i := range in {
			in[i] = vec(counts[i])
		}
		return fmt.Sprintf("allgatherv(%s)", list), in
	case "rsv":
		in := make([]algebra.Value, p)
		for i := range in {
			in[i] = vec(total)
		}
		return fmt.Sprintf("reduce_scatterv(+,%s)", list), in
	case "rsv-agv":
		in := make([]algebra.Value, p)
		for i := range in {
			in[i] = vec(total)
		}
		return fmt.Sprintf("reduce_scatterv(max,%s) ; allgatherv(%s)", list, list), in
	}
	panic("unknown kind " + kind)
}

// TestSparseConformance checks bitwise agreement of the machine-
// independent semantics (term.Eval), the virtual machine, and the native
// backend on every sparse program shape, at power-of-two and awkward
// machine sizes alike.
func TestSparseConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(406))
	kinds := []string{"halo", "halo-chain", "agv", "rsv", "rsv-agv"}
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8} {
		for _, kind := range kinds {
			src, in := sparseProgram(kind, p, rng)
			prog, err := lang.Parse(src, nil)
			if err != nil {
				t.Fatalf("p=%d %s: parse: %v", p, kind, err)
			}
			want := term.Eval(prog, in)
			virt, _ := FromTerm(prog).Run(Machine{Ts: 4, Tw: 1, P: p}, in)
			nat, _ := FromTerm(prog).RunNative(p, in)
			for r := 0; r < p; r++ {
				if !algebra.Equal(virt[r], want[r]) {
					t.Fatalf("p=%d %s rank %d: virtual %v, eval %v", p, kind, r, virt[r], want[r])
				}
				if !algebra.Equal(nat[r], want[r]) {
					t.Fatalf("p=%d %s rank %d: native %v, eval %v", p, kind, r, nat[r], want[r])
				}
			}
		}
	}
}

// TestSparseOptimizedConformance rewrites each sparse program with the
// full rule set (greedy engine, machine-size pinned) and checks the
// optimized form still conforms on both backends.
func TestSparseOptimizedConformance(t *testing.T) {
	rng := rand.New(rand.NewSource(407))
	for _, p := range []int{2, 3, 4, 6} {
		for _, kind := range []string{"halo-chain", "rsv-agv"} {
			src, in := sparseProgram(kind, p, rng)
			prog, err := lang.Parse(src, nil)
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			eng := rules.NewEngine()
			eng.Env.P = p
			opt, apps := eng.Optimize(prog)
			if len(apps) == 0 {
				t.Fatalf("p=%d %s: no rewrite fired on %s", p, kind, src)
			}
			want := term.Eval(prog, in)
			virt, _ := FromTerm(opt).Run(Machine{Ts: 4, Tw: 1, P: p}, in)
			nat, _ := FromTerm(opt).RunNative(p, in)
			for r := 0; r < p; r++ {
				if !algebra.Equal(virt[r], want[r]) {
					t.Fatalf("p=%d %s rank %d: optimized virtual %v, eval %v", p, kind, r, virt[r], want[r])
				}
				if !algebra.Equal(nat[r], want[r]) {
					t.Fatalf("p=%d %s rank %d: optimized native %v, eval %v", p, kind, r, nat[r], want[r])
				}
			}
		}
	}
}
