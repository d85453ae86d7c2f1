package coll

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/machine"
)

// runSPMD executes body on p processors with the given params and collects
// each processor's returned value.
func runSPMD(p int, params machine.Params, body func(pr Comm) Value) ([]Value, machine.Result) {
	m := machine.New(p, params)
	out := make([]Value, p)
	res := m.Run(func(pr *machine.Proc) {
		out[pr.Rank()] = body(Comm(pr))
	})
	return out, res
}

func scalars(xs ...float64) []Value {
	out := make([]Value, len(xs))
	for i, x := range xs {
		out[i] = algebra.Scalar(x)
	}
	return out
}

func randScalars(rng *rand.Rand, n int) []Value {
	out := make([]Value, n)
	for i := range out {
		out[i] = algebra.Scalar(float64(rng.Intn(19) - 9))
	}
	return out
}

// seqReduce is the sequential reference x1 ⊕ x2 ⊕ … ⊕ xn (left fold).
func seqReduce(op *algebra.Op, xs []Value) Value {
	acc := xs[0]
	for _, x := range xs[1:] {
		acc = op.Apply(acc, x)
	}
	return acc
}

// seqScan is the sequential inclusive prefix.
func seqScan(op *algebra.Op, xs []Value) []Value {
	out := make([]Value, len(xs))
	out[0] = xs[0]
	for i := 1; i < len(xs); i++ {
		out[i] = op.Apply(out[i-1], xs[i])
	}
	return out
}

var testSizes = []int{1, 2, 3, 4, 5, 6, 7, 8, 12, 13, 16, 17, 31, 32, 33, 64}

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, n := range testSizes {
		roots := []int{0}
		if n > 1 {
			roots = append(roots, 1, n-1)
		}
		for _, root := range roots {
			out, _ := runSPMD(n, machine.Params{Ts: 10, Tw: 1}, func(pr Comm) Value {
				x := Value(algebra.Undef{})
				if pr.Rank() == root {
					x = algebra.Scalar(42)
				}
				return Bcast(pr, root, x)
			})
			for r, v := range out {
				if !algebra.Equal(v, algebra.Scalar(42)) {
					t.Fatalf("p=%d root=%d: proc %d got %v, want 42", n, root, r, v)
				}
			}
		}
	}
}

func TestBcastCostMatchesEquation15(t *testing.T) {
	// Tbcast = log p · (ts + m·tw), for power-of-two machines.
	params := machine.Params{Ts: 100, Tw: 2}
	mWords := 16
	for _, p := range []int{2, 4, 8, 16, 32} {
		_, res := runSPMD(p, params, func(pr Comm) Value {
			x := Value(algebra.Undef{})
			if pr.Rank() == 0 {
				x = make(algebra.Vec, mWords)
			}
			return Bcast(pr, 0, x)
		})
		logp := math.Log2(float64(p))
		want := logp * (params.Ts + float64(mWords)*params.Tw)
		if res.Makespan != want {
			t.Fatalf("p=%d: bcast makespan = %g, want %g", p, res.Makespan, want)
		}
	}
}

func TestReduceAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range testSizes {
		xs := randScalars(rng, n)
		out, _ := runSPMD(n, machine.Params{Ts: 10, Tw: 1}, func(pr Comm) Value {
			return Reduce(pr, 0, algebra.Add, xs[pr.Rank()])
		})
		want := seqReduce(algebra.Add, xs)
		if !algebra.Equal(out[0], want) {
			t.Fatalf("p=%d: reduce root = %v, want %v", n, out[0], want)
		}
		// Non-root processors keep their input (reduce's list semantics).
		for r := 1; r < n; r++ {
			if !algebra.Equal(out[r], xs[r]) {
				t.Fatalf("p=%d: proc %d changed from %v to %v", n, r, xs[r], out[r])
			}
		}
	}
}

func TestReduceNonCommutativeOrderCorrect(t *testing.T) {
	// Left projection reduces to x1 only when combining is rank-ordered.
	rng := rand.New(rand.NewSource(12))
	for _, n := range testSizes {
		xs := randScalars(rng, n)
		out, _ := runSPMD(n, machine.Params{}, func(pr Comm) Value {
			return Reduce(pr, 0, algebra.Left, xs[pr.Rank()])
		})
		if !algebra.Equal(out[0], xs[0]) {
			t.Fatalf("p=%d: left-reduce = %v, want %v", n, out[0], xs[0])
		}
	}
}

func TestReduceNonZeroRoot(t *testing.T) {
	xs := scalars(1, 2, 3, 4, 5)
	out, _ := runSPMD(5, machine.Params{}, func(pr Comm) Value {
		return Reduce(pr, 3, algebra.Add, xs[pr.Rank()])
	})
	if !algebra.Equal(out[3], algebra.Scalar(15)) {
		t.Fatalf("reduce at root 3 = %v, want 15", out[3])
	}
}

func TestReduceCostMatchesEquation16(t *testing.T) {
	// Treduce = log p · (ts + m·(tw+1)).
	params := machine.Params{Ts: 100, Tw: 2}
	mWords := 16
	for _, p := range []int{2, 4, 8, 16} {
		_, res := runSPMD(p, params, func(pr Comm) Value {
			x := make(algebra.Vec, mWords)
			for i := range x {
				x[i] = float64(pr.Rank())
			}
			return Reduce(pr, 0, algebra.Add, x)
		})
		logp := math.Log2(float64(p))
		want := logp * (params.Ts + float64(mWords)*(params.Tw+1))
		if res.Makespan != want {
			t.Fatalf("p=%d: reduce makespan = %g, want %g", p, res.Makespan, want)
		}
	}
}

func TestAllReduceAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range testSizes {
		xs := randScalars(rng, n)
		out, _ := runSPMD(n, machine.Params{Ts: 10, Tw: 1}, func(pr Comm) Value {
			return AllReduce(pr, algebra.Add, xs[pr.Rank()])
		})
		want := seqReduce(algebra.Add, xs)
		for r, v := range out {
			if !algebra.Equal(v, want) {
				t.Fatalf("p=%d: allreduce proc %d = %v, want %v", n, r, v, want)
			}
		}
	}
}

func TestAllReduceNonCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, n := range testSizes {
		xs := randScalars(rng, n)
		out, _ := runSPMD(n, machine.Params{}, func(pr Comm) Value {
			return AllReduce(pr, algebra.Left, xs[pr.Rank()])
		})
		for r, v := range out {
			if !algebra.Equal(v, xs[0]) {
				t.Fatalf("p=%d: left-allreduce proc %d = %v, want %v", n, r, v, xs[0])
			}
		}
	}
}

func TestAllReduceCostPow2(t *testing.T) {
	// On powers of two the butterfly costs the same as Reduce.
	params := machine.Params{Ts: 100, Tw: 2}
	mWords := 8
	for _, p := range []int{2, 4, 8, 16} {
		_, res := runSPMD(p, params, func(pr Comm) Value {
			return AllReduce(pr, algebra.Add, make(algebra.Vec, mWords))
		})
		logp := math.Log2(float64(p))
		want := logp * (params.Ts + float64(mWords)*(params.Tw+1))
		if res.Makespan != want {
			t.Fatalf("p=%d: allreduce makespan = %g, want %g", p, res.Makespan, want)
		}
	}
}

func TestScanAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, n := range testSizes {
		xs := randScalars(rng, n)
		out, _ := runSPMD(n, machine.Params{Ts: 10, Tw: 1}, func(pr Comm) Value {
			return Scan(pr, algebra.Add, xs[pr.Rank()])
		})
		want := seqScan(algebra.Add, xs)
		if !algebra.EqualLists(out, want) {
			t.Fatalf("p=%d: scan = %v, want %v", n, out, want)
		}
	}
}

func TestScanNonCommutative(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, n := range testSizes {
		xs := randScalars(rng, n)
		out, _ := runSPMD(n, machine.Params{}, func(pr Comm) Value {
			return Scan(pr, algebra.Left, xs[pr.Rank()])
		})
		// scan(left) leaves every prefix at x1.
		for r, v := range out {
			if !algebra.Equal(v, xs[0]) {
				t.Fatalf("p=%d: left-scan proc %d = %v, want %v", n, r, v, xs[0])
			}
		}
	}
}

func TestScanVectors(t *testing.T) {
	n := 6
	out, _ := runSPMD(n, machine.Params{}, func(pr Comm) Value {
		v := algebra.Vec{float64(pr.Rank() + 1), 1}
		return Scan(pr, algebra.Mul, v)
	})
	// First lane: factorial prefixes; second lane: all ones.
	fact := 1.0
	for r, v := range out {
		fact *= float64(r + 1)
		if !algebra.Equal(v, algebra.Vec{fact, 1}) {
			t.Fatalf("proc %d = %v, want [%g 1]", r, v, fact)
		}
	}
}

func TestScanCostMatchesEquation17(t *testing.T) {
	// Tscan = log p · (ts + m·(tw+2)) on powers of two.
	params := machine.Params{Ts: 100, Tw: 2}
	mWords := 16
	for _, p := range []int{2, 4, 8, 16} {
		_, res := runSPMD(p, params, func(pr Comm) Value {
			return Scan(pr, algebra.Add, make(algebra.Vec, mWords))
		})
		logp := math.Log2(float64(p))
		want := logp * (params.Ts + float64(mWords)*(params.Tw+2))
		if res.Makespan != want {
			t.Fatalf("p=%d: scan makespan = %g, want %g", p, res.Makespan, want)
		}
	}
}

func TestScanSingleProcessor(t *testing.T) {
	out, res := runSPMD(1, machine.Params{Ts: 100, Tw: 1}, func(pr Comm) Value {
		return Scan(pr, algebra.Add, algebra.Scalar(7))
	})
	if !algebra.Equal(out[0], algebra.Scalar(7)) || res.Makespan != 0 {
		t.Fatalf("single-proc scan = %v, makespan %g", out[0], res.Makespan)
	}
}

// TestNonPow2CostBounds: the fold/unfold scheme adds at most two extra
// transfer rounds beyond the power-of-two butterfly, so the makespan on
// any machine size stays within (log2(p)+2) phases.
func TestNonPow2CostBounds(t *testing.T) {
	params := machine.Params{Ts: 100, Tw: 1}
	mWords := 8
	phase := params.Ts + float64(mWords)*(params.Tw+2) // scan's worst phase
	for _, p := range []int{3, 5, 6, 7, 11, 13, 33, 63} {
		_, res := runSPMD(p, params, func(pr Comm) Value {
			return Scan(pr, algebra.Add, make(algebra.Vec, mWords))
		})
		phases := math.Floor(math.Log2(float64(p))) + 2
		// Folded leaders additionally track the exclusive prefix: allow
		// one extra op per phase.
		bound := phases * (phase + float64(mWords))
		if res.Makespan > bound+1e-9 {
			t.Errorf("p=%d: scan makespan %g exceeds bound %g", p, res.Makespan, bound)
		}
		_, res = runSPMD(p, params, func(pr Comm) Value {
			return AllReduce(pr, algebra.Add, make(algebra.Vec, mWords))
		})
		if res.Makespan > bound+1e-9 {
			t.Errorf("p=%d: allreduce makespan %g exceeds bound %g", p, res.Makespan, bound)
		}
	}
}
