package coll

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/machine"
)

func randBlocks(rng *rand.Rand, p, m int) []algebra.Vec {
	out := make([]algebra.Vec, p)
	for i := range out {
		v := make(algebra.Vec, m)
		for j := range v {
			v[j] = float64(rng.Intn(9) - 4)
		}
		out[i] = v
	}
	return out
}

func elementwiseSum(blocks []algebra.Vec) algebra.Vec {
	out := append(algebra.Vec(nil), blocks[0]...)
	for _, b := range blocks[1:] {
		for j := range out {
			out[j] += b[j]
		}
	}
	return out
}

func TestReduceScatterAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 8, 13, 16} {
		m := 2*n + 3 // remainder chunks exercised
		blocks := randBlocks(rng, n, m)
		want := elementwiseSum(blocks)
		vm := machine.New(n, machine.Params{Ts: 4, Tw: 1})
		got := make([]algebra.Vec, n)
		vm.Run(func(proc *machine.Proc) {
			c := Comm(proc)
			v := ReduceScatter(c, algebra.Add, blocks[proc.Rank()].Clone())
			got[proc.Rank()] = v.(algebra.Vec)
		})
		// Concatenate the chunks in rank order and compare.
		var flat algebra.Vec
		for _, g := range got {
			flat = append(flat, g...)
		}
		if !algebra.Equal(flat, want) {
			t.Fatalf("p=%d: reduce-scatter = %v, want %v", n, flat, want)
		}
	}
}

func TestReduceScatterMax(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	n, m := 6, 12
	blocks := randBlocks(rng, n, m)
	want := append(algebra.Vec(nil), blocks[0]...)
	for _, b := range blocks[1:] {
		for j := range want {
			if b[j] > want[j] {
				want[j] = b[j]
			}
		}
	}
	vm := machine.New(n, machine.Params{Ts: 4, Tw: 1})
	var flatMu [16]algebra.Vec
	vm.Run(func(proc *machine.Proc) {
		c := Comm(proc)
		v := ReduceScatter(c, algebra.Max, blocks[proc.Rank()].Clone())
		flatMu[proc.Rank()] = v.(algebra.Vec)
	})
	var flat algebra.Vec
	for i := 0; i < n; i++ {
		flat = append(flat, flatMu[i]...)
	}
	if !algebra.Equal(flat, want) {
		t.Fatalf("max reduce-scatter = %v, want %v", flat, want)
	}
}

func TestReduceScatterRejectsSmallBlocks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	vm := machine.New(4, machine.Params{})
	vm.Run(func(proc *machine.Proc) {
		ReduceScatter(Comm(proc), algebra.Add, algebra.Vec{1, 2})
	})
}

func TestAllReduceRingAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(203))
	for _, n := range []int{1, 2, 3, 5, 6, 8, 12, 16} {
		m := 3 * n
		blocks := randBlocks(rng, n, m)
		want := elementwiseSum(blocks)
		out, _ := runSPMD(n, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
			return AllReduceRing(pr, algebra.Add, blocks[pr.Rank()].Clone())
		})
		for r, v := range out {
			if !algebra.Equal(v, want) {
				t.Fatalf("p=%d: ring allreduce proc %d = %v, want %v", n, r, v, want)
			}
		}
	}
}

func TestAllReduceWithSelectsAlgorithm(t *testing.T) {
	blocks := randBlocks(rand.New(rand.NewSource(204)), 4, 8)
	want := elementwiseSum(blocks)
	for _, alg := range []cost.Algo{cost.AlgoButterfly, cost.AlgoRing} {
		out, _ := runSPMD(4, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
			return ReduceBy(pr, algebra.Add, blocks[pr.Rank()].Clone(), true, alg, 0)
		})
		for r, v := range out {
			if !algebra.Equal(v, want) {
				t.Fatalf("%s: proc %d = %v, want %v", alg, r, v, want)
			}
		}
	}
}

// TestRingBeatsButterflyOnLargeBlocks: ~2m bandwidth against m·log p.
func TestRingBeatsButterflyOnLargeBlocks(t *testing.T) {
	params := machine.Params{Ts: 10, Tw: 4}
	p, m := 16, 1<<14
	run := func(alg cost.Algo) float64 {
		return run2(params, p, m, alg)
	}
	if ring, bf := run(cost.AlgoRing), run(cost.AlgoButterfly); ring >= bf {
		t.Fatalf("ring (%g) should beat butterfly (%g) on large blocks", ring, bf)
	}
	// And the butterfly wins the start-up-dominated regime.
	params = machine.Params{Ts: 10000, Tw: 1}
	m = 64
	if ring, bf := run2(params, p, m, cost.AlgoRing), run2(params, p, m, cost.AlgoButterfly); bf >= ring {
		t.Fatalf("butterfly (%g) should beat ring (%g) on small blocks", bf, ring)
	}
}

// run2 is the virtual makespan of one all-reduction of m-word blocks
// dispatched by algorithm name.
func run2(params machine.Params, p, m int, alg cost.Algo) float64 {
	_, res := runSPMD(p, params, func(pr Comm) Value {
		return ReduceBy(pr, algebra.Add, make(algebra.Vec, m), true, alg, 0)
	})
	return res.Makespan
}

// TestAllReduceAlgString: the dispatch is keyed by the algorithms' string
// names — "butterfly" and "ring" run exactly the collectives they name
// (same virtual makespan as the direct calls), and an unknown name runs
// the butterfly.
func TestAllReduceAlgString(t *testing.T) {
	params := machine.Params{Ts: 10, Tw: 4}
	p, m := 8, 256
	direct := func(body func(c Comm, x Value) Value) float64 {
		_, res := runSPMD(p, params, func(pr Comm) Value { return body(pr, make(algebra.Vec, m)) })
		return res.Makespan
	}
	bf := direct(func(c Comm, x Value) Value { return AllReduce(c, algebra.Add, x) })
	ring := direct(func(c Comm, x Value) Value { return AllReduceRing(c, algebra.Add, x) })
	if bf == ring {
		t.Fatal("the two algorithms must be distinguishable by makespan here")
	}
	if got := run2(params, p, m, "butterfly"); got != bf {
		t.Fatalf("\"butterfly\" ran in %g, AllReduce in %g", got, bf)
	}
	if got := run2(params, p, m, "ring"); got != ring {
		t.Fatalf("\"ring\" ran in %g, AllReduceRing in %g", got, ring)
	}
	if got := run2(params, p, m, "7"); got != bf {
		t.Fatalf("unknown algorithm name ran in %g, want the butterfly's %g", got, bf)
	}
}
