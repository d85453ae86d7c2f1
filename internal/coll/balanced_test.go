package coll

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/golden"
	"repro/internal/machine"
	"repro/internal/rank"
)

// scanReduceRef computes scan(⊕); reduce(⊕) sequentially: the reduction
// of the prefixes.
func scanReduceRef(op *algebra.Op, xs []Value) Value {
	acc := xs[0]
	prefix := xs[0]
	for _, x := range xs[1:] {
		prefix = op.Apply(prefix, x)
		acc = op.Apply(acc, prefix)
	}
	return acc
}

// TestFigure4 reproduces the balanced reduction of Figure 4: input
// [2 5 9 1 2 6], ⊕ = +, op_sr over pairs; the root receives (86, 200),
// and π₁ gives scan;reduce = 86.
func TestFigure4(t *testing.T) {
	xs := scalars(2, 5, 9, 1, 2, 6)
	sr := algebra.OpSR(algebra.Add)
	out, _ := runSPMD(6, machine.Params{Ts: 10, Tw: 1}, func(pr Comm) Value {
		return ReduceBalanced(pr, sr, algebra.Pair(xs[pr.Rank()]))
	})
	want := algebra.Tuple{algebra.Scalar(86), algebra.Scalar(200)}
	if !algebra.Equal(out[0], want) {
		t.Fatalf("root value = %v, want %v", out[0], want)
	}
	if !algebra.Equal(algebra.First(out[0]), algebra.Scalar(86)) {
		t.Fatalf("π₁ = %v, want 86", algebra.First(out[0]))
	}
}

// TestReduceBalancedMatchesScanReduce checks on every machine size that
// π₁(reduce_balanced(op_sr)) over paired inputs equals scan(⊕);reduce(⊕),
// the semantic content of rule SR-Reduction.
func TestReduceBalancedMatchesScanReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range testSizes {
		for trial := 0; trial < 3; trial++ {
			xs := randScalars(rng, n)
			sr := algebra.OpSR(algebra.Add)
			out, _ := runSPMD(n, machine.Params{}, func(pr Comm) Value {
				return ReduceBalanced(pr, sr, algebra.Pair(xs[pr.Rank()]))
			})
			got := algebra.First(out[0])
			want := scanReduceRef(algebra.Add, xs)
			if !algebra.Equal(got, want) {
				t.Fatalf("p=%d: balanced reduce = %v, want %v (inputs %v)", n, got, want, xs)
			}
		}
	}
}

func TestReduceBalancedMaxOperator(t *testing.T) {
	// The rule condition only requires commutativity; try ⊕ = max.
	rng := rand.New(rand.NewSource(22))
	for _, n := range []int{3, 5, 6, 8, 11, 16} {
		xs := randScalars(rng, n)
		sr := algebra.OpSR(algebra.Max)
		out, _ := runSPMD(n, machine.Params{}, func(pr Comm) Value {
			return ReduceBalanced(pr, sr, algebra.Pair(xs[pr.Rank()]))
		})
		got := algebra.First(out[0])
		want := scanReduceRef(algebra.Max, xs)
		if !algebra.Equal(got, want) {
			t.Fatalf("p=%d: balanced max-reduce = %v, want %v", n, got, want)
		}
	}
}

func TestReduceBalancedLevels(t *testing.T) {
	// The balanced tree has ceil(log2 p) levels; with one transfer and
	// one combine per level on the critical path, the makespan is
	// bounded by ceil(log2 p)·(ts + 2m·tw + 4m) for op_sr on pairs.
	params := machine.Params{Ts: 100, Tw: 2}
	for _, p := range []int{2, 4, 6, 8, 16} {
		sr := algebra.OpSR(algebra.Add)
		mWords := 8
		_, res := runSPMD(p, params, func(pr Comm) Value {
			return ReduceBalanced(pr, sr, algebra.Pair(Value(make(algebra.Vec, mWords))))
		})
		levels := math.Ceil(math.Log2(float64(p)))
		bound := levels * (params.Ts + 2*float64(mWords)*params.Tw + 4*float64(mWords))
		if res.Makespan > bound+1e-9 {
			t.Fatalf("p=%d: balanced reduce makespan %g exceeds bound %g", p, res.Makespan, bound)
		}
		if res.Makespan == 0 {
			t.Fatalf("p=%d: balanced reduce makespan is zero", p)
		}
	}
}

func TestAllReduceBalancedPow2Butterfly(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{2, 4, 8, 16, 32} {
		xs := randScalars(rng, n)
		sr := algebra.OpSR(algebra.Add)
		out, res := runSPMD(n, machine.Params{Ts: 50, Tw: 1}, func(pr Comm) Value {
			return AllReduceBalanced(pr, sr, algebra.Pair(xs[pr.Rank()]))
		})
		want := scanReduceRef(algebra.Add, xs)
		for r, v := range out {
			if !algebra.Equal(algebra.First(v), want) {
				t.Fatalf("p=%d: proc %d π₁ = %v, want %v", n, r, algebra.First(v), want)
			}
		}
		// Butterfly: log p phases of (ts + 2m·tw + 4m) with m = 1.
		logp := math.Log2(float64(n))
		wantT := logp * (50 + 2*1 + 4*1)
		if res.Makespan != wantT {
			t.Fatalf("p=%d: allreduce_balanced makespan = %g, want %g", n, res.Makespan, wantT)
		}
	}
}

// TestAllReduceBalancedPow2IsAllReduce: on a power-of-two group the
// balanced all-reduction is AllReduce's butterfly — the same partner,
// combine side and charge in every phase — so the two return the same
// bits, leave every rank the same counters and, on the virtual machine,
// take the same time; for op_sr(+) on pairs and for + on blocks.
func TestAllReduceBalancedPow2IsAllReduce(t *testing.T) {
	machines := []struct {
		name string
		run  func(p int, body func(Comm)) (makespan float64)
	}{
		{"virtual", func(p int, body func(Comm)) float64 {
			return machine.New(p, machine.Params{Ts: 100, Tw: 1}).Run(func(pr *machine.Proc) { body(pr) }).Makespan
		}},
		{"native", func(p int, body func(Comm)) float64 {
			backend.New(p).Run(func(pr *backend.Proc) { body(pr) })
			return 0
		}},
	}
	entries := []func(Comm, *algebra.Op, Value) Value{AllReduce, AllReduceBalanced}
	for _, mc := range machines {
		for p := 1; p <= 64; p *= 2 {
			for _, op := range []*algebra.Op{algebra.OpSR(algebra.Add), algebra.Add} {
				for _, m := range []int{1, 16} {
					in := scanInputs(op, p, m)
					var runs [2]string
					for i, entry := range entries {
						bits := make([][]byte, p)
						counters := make([]rank.Counters, p)
						makespan := mc.run(p, func(c Comm) {
							r := c.Rank()
							bits[r] = golden.AppendBits(nil, algebra.Boxed(entry(c, op, in[r])))
							counters[r] = c.(interface{ Counters() rank.Counters }).Counters()
						})
						runs[i] = fmt.Sprintf("makespan=%g counters=%v results=%x", makespan, counters, bits)
					}
					if runs[0] != runs[1] {
						t.Errorf("%s p=%d %s m=%d:\nAllReduce         %s\nAllReduceBalanced %s", mc.name, p, op.Name, m, runs[0], runs[1])
					}
				}
			}
		}
	}
}

func TestAllReduceBalancedNonPow2FallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{3, 5, 6, 7, 12, 13} {
		xs := randScalars(rng, n)
		sr := algebra.OpSR(algebra.Add)
		out, _ := runSPMD(n, machine.Params{}, func(pr Comm) Value {
			return AllReduceBalanced(pr, sr, algebra.Pair(xs[pr.Rank()]))
		})
		want := scanReduceRef(algebra.Add, xs)
		for r, v := range out {
			if !algebra.Equal(algebra.First(v), want) {
				t.Fatalf("p=%d: proc %d π₁ = %v, want %v", n, r, algebra.First(v), want)
			}
		}
	}
}

// TestFigure5 reproduces the balanced scan of Figure 5: input
// [2 5 9 1 2 6] quadrupled, op_ss with ⊕ = +; the first components end as
// [2 9 25 42 61 86] — the double scan of the input.
func TestFigure5(t *testing.T) {
	xs := scalars(2, 5, 9, 1, 2, 6)
	ss := algebra.OpSS(algebra.Add)
	out, _ := runSPMD(6, machine.Params{Ts: 10, Tw: 1}, func(pr Comm) Value {
		return ScanBalanced(pr, ss, algebra.Quadruple(xs[pr.Rank()]))
	})
	want := []float64{2, 9, 25, 42, 61, 86}
	for r, v := range out {
		if !algebra.Equal(algebra.First(v), algebra.Scalar(want[r])) {
			t.Fatalf("proc %d π₁ = %v, want %g", r, algebra.First(v), want[r])
		}
	}
}

// TestFigure5Intermediates checks the phase-by-phase values of Figure 5 on
// processors 0 and 1 after the first two phases.
func TestFigure5Intermediates(t *testing.T) {
	ss := algebra.OpSS(algebra.Add)
	q := func(a, b, c, d float64) algebra.Tuple {
		return algebra.Tuple{algebra.Scalar(a), algebra.Scalar(b), algebra.Scalar(c), algebra.Scalar(d)}
	}
	// Phase 1, processors 0 (lower) and 1 (higher).
	lo := ss.Lo(q(2, 2, 2, 2), algebra.Tuple{algebra.Scalar(5), algebra.Scalar(5), algebra.Scalar(5)})
	if !algebra.Equal(lo, q(2, 9, 14, 7)) {
		t.Fatalf("phase-1 lower = %v, want (2 9 14 7)", lo)
	}
	hi := ss.Hi(q(5, 5, 5, 5), algebra.Tuple{algebra.Scalar(2), algebra.Scalar(2), algebra.Scalar(2)})
	if !algebra.Equal(hi, q(9, 9, 14, 14)) {
		t.Fatalf("phase-1 higher = %v, want (9 9 14 14)", hi)
	}
	// Phase 2, processors 0 (lower, partner 2) and 2 (higher, partner 0).
	lo2 := ss.Lo(q(2, 9, 14, 7), algebra.Tuple{algebra.Scalar(19), algebra.Scalar(20), algebra.Scalar(10)})
	if !algebra.Equal(lo2, q(2, 42, 68, 17)) {
		t.Fatalf("phase-2 lower = %v, want (2 42 68 17)", lo2)
	}
	hi2 := ss.Hi(q(9, 19, 20, 10), algebra.Tuple{algebra.Scalar(9), algebra.Scalar(14), algebra.Scalar(7)})
	if !algebra.Equal(hi2, q(25, 42, 68, 51)) {
		t.Fatalf("phase-2 higher = %v, want (25 42 68 51)", hi2)
	}
}

// seqScanScan is the sequential reference for scan(⊕); scan(⊕).
func seqScanScan(op *algebra.Op, xs []Value) []Value {
	return seqScan(op, seqScan(op, xs))
}

func TestScanBalancedMatchesDoubleScanAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, n := range testSizes {
		for trial := 0; trial < 3; trial++ {
			xs := randScalars(rng, n)
			ss := algebra.OpSS(algebra.Add)
			out, _ := runSPMD(n, machine.Params{}, func(pr Comm) Value {
				return ScanBalanced(pr, ss, algebra.Quadruple(xs[pr.Rank()]))
			})
			want := seqScanScan(algebra.Add, xs)
			for r := range out {
				if !algebra.Equal(algebra.First(out[r]), want[r]) {
					t.Fatalf("p=%d proc %d: π₁ = %v, want %v (inputs %v)",
						n, r, algebra.First(out[r]), want[r], xs)
				}
			}
		}
	}
}

func TestScanBalancedMaxOperator(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, n := range []int{3, 6, 8, 13} {
		xs := randScalars(rng, n)
		ss := algebra.OpSS(algebra.Max)
		out, _ := runSPMD(n, machine.Params{}, func(pr Comm) Value {
			return ScanBalanced(pr, ss, algebra.Quadruple(xs[pr.Rank()]))
		})
		want := seqScanScan(algebra.Max, xs)
		for r := range out {
			if !algebra.Equal(algebra.First(out[r]), want[r]) {
				t.Fatalf("p=%d proc %d: π₁ = %v, want %v", n, r, algebra.First(out[r]), want[r])
			}
		}
	}
}

func TestScanBalancedCostPow2(t *testing.T) {
	// log p phases of ts + 3m·tw (three of four components shipped) plus
	// 8m on the higher side (Table 1: ts + m(3tw + 8)).
	params := machine.Params{Ts: 100, Tw: 2}
	mWords := 8
	for _, p := range []int{2, 4, 8, 16} {
		ss := algebra.OpSS(algebra.Add)
		_, res := runSPMD(p, params, func(pr Comm) Value {
			return ScanBalanced(pr, ss, algebra.Quadruple(Value(make(algebra.Vec, mWords))))
		})
		logp := math.Log2(float64(p))
		want := logp * (params.Ts + float64(mWords)*(3*params.Tw+8))
		if res.Makespan != want {
			t.Fatalf("p=%d: scan_balanced makespan = %g, want %g", p, res.Makespan, want)
		}
	}
}

// TestFigure6 reproduces the comcast computation of Figure 6: b = 2,
// ⊕ = +, six processors end with [2 4 6 8 10 12] via bcast + repeat.
func TestFigure6(t *testing.T) {
	ops := algebra.OpCompBS(algebra.Add)
	out, _ := runSPMD(6, machine.Params{Ts: 10, Tw: 1}, func(pr Comm) Value {
		x := Value(algebra.Undef{})
		if pr.Rank() == 0 {
			x = algebra.Scalar(2)
		}
		return BcastRepeat(pr, 0, ops, x)
	})
	want := []float64{2, 4, 6, 8, 10, 12}
	for r, v := range out {
		if !algebra.Equal(v, algebra.Scalar(want[r])) {
			t.Fatalf("proc %d = %v, want %g", r, v, want[r])
		}
	}
}

// comcastRef is the sequential reference for bcast; scan(⊕).
func comcastRef(op *algebra.Op, b Value, n int) []Value {
	out := make([]Value, n)
	out[0] = b
	for i := 1; i < n; i++ {
		out[i] = op.Apply(out[i-1], b)
	}
	return out
}

func TestBcastRepeatAllSizes(t *testing.T) {
	for _, n := range testSizes {
		ops := algebra.OpCompBS(algebra.Add)
		out, _ := runSPMD(n, machine.Params{}, func(pr Comm) Value {
			x := Value(algebra.Undef{})
			if pr.Rank() == 0 {
				x = algebra.Scalar(3)
			}
			return BcastRepeat(pr, 0, ops, x)
		})
		want := comcastRef(algebra.Add, algebra.Scalar(3), n)
		if !algebra.EqualLists(out, want) {
			t.Fatalf("p=%d: bcast;repeat = %v, want %v", n, out, want)
		}
	}
}

func TestComcastDoublingAllSizes(t *testing.T) {
	for _, n := range testSizes {
		ops := algebra.OpCompBS(algebra.Add)
		out, _ := runSPMD(n, machine.Params{}, func(pr Comm) Value {
			x := Value(algebra.Undef{})
			if pr.Rank() == 0 {
				x = algebra.Scalar(3)
			}
			return Comcast(pr, 0, ops, x)
		})
		want := comcastRef(algebra.Add, algebra.Scalar(3), n)
		if !algebra.EqualLists(out, want) {
			t.Fatalf("p=%d: comcast = %v, want %v", n, out, want)
		}
	}
}

func TestComcastVariantsAgreeBSS2(t *testing.T) {
	// Both comcast implementations compute bcast; scan(*); scan(+).
	for _, n := range []int{1, 2, 5, 6, 8, 13} {
		ops := algebra.OpCompBSS2(algebra.Mul, algebra.Add)
		b := algebra.Scalar(2)
		ref := make([]Value, n)
		pow := Value(b)
		acc := Value(b)
		ref[0] = acc
		for i := 1; i < n; i++ {
			pow = algebra.Mul.Apply(pow, b)
			acc = algebra.Add.Apply(acc, pow)
			ref[i] = acc
		}
		for name, impl := range map[string]func(pr Comm) Value{
			"bcast;repeat": func(pr Comm) Value {
				x := Value(algebra.Undef{})
				if pr.Rank() == 0 {
					x = b
				}
				return BcastRepeat(pr, 0, ops, x)
			},
			"comcast": func(pr Comm) Value {
				x := Value(algebra.Undef{})
				if pr.Rank() == 0 {
					x = b
				}
				return Comcast(pr, 0, ops, x)
			},
		} {
			out, _ := runSPMD(n, machine.Params{}, impl)
			if !algebra.EqualLists(out, ref) {
				t.Fatalf("p=%d %s = %v, want %v", n, name, out, ref)
			}
		}
	}
}

func TestBcastRepeatFasterThanComcast(t *testing.T) {
	// The paper's observation (§3.4, Figures 7–8): the cost-optimal
	// doubling comcast is slower than bcast + local repeat because it
	// ships the auxiliary variables.
	params := machine.Params{Ts: 1000, Tw: 1}
	mWords := 64
	for _, p := range []int{8, 16, 32, 64} {
		ops := algebra.OpCompBS(algebra.Add)
		mkInput := func(pr Comm) Value {
			if pr.Rank() == 0 {
				return Value(make(algebra.Vec, mWords))
			}
			return algebra.Undef{}
		}
		_, fast := runSPMD(p, params, func(pr Comm) Value {
			return BcastRepeat(pr, 0, ops, mkInput(pr))
		})
		_, slow := runSPMD(p, params, func(pr Comm) Value {
			return Comcast(pr, 0, ops, mkInput(pr))
		})
		if fast.Makespan >= slow.Makespan {
			t.Fatalf("p=%d: bcast;repeat (%g) not faster than comcast (%g)",
				p, fast.Makespan, slow.Makespan)
		}
	}
}

func TestGatherAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range testSizes {
		xs := randScalars(rng, n)
		m := machine.New(n, machine.Params{Ts: 5, Tw: 1})
		var rootGot []Value
		m.Run(func(proc *machine.Proc) {
			pr := Comm(proc)
			got := Gather(pr, 0, xs[pr.Rank()])
			if pr.Rank() == 0 {
				rootGot = got
			} else if got != nil {
				t.Errorf("p=%d: non-root proc %d got %v", n, pr.Rank(), got)
			}
		})
		if !algebra.EqualLists(rootGot, xs) {
			t.Fatalf("p=%d: gather = %v, want %v", n, rootGot, xs)
		}
	}
}

func TestGatherNonZeroRoot(t *testing.T) {
	xs := scalars(10, 20, 30, 40, 50)
	m := machine.New(5, machine.Params{})
	m.Run(func(proc *machine.Proc) {
		pr := Comm(proc)
		got := Gather(pr, 2, xs[pr.Rank()])
		if pr.Rank() == 2 && !algebra.EqualLists(got, xs) {
			t.Errorf("gather at root 2 = %v, want %v", got, xs)
		}
	})
}

func TestScatterAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, n := range testSizes {
		xs := randScalars(rng, n)
		out, _ := runSPMD(n, machine.Params{Ts: 5, Tw: 1}, func(pr Comm) Value {
			var in []Value
			if pr.Rank() == 0 {
				in = xs
			}
			return Scatter(pr, 0, in)
		})
		if !algebra.EqualLists(out, xs) {
			t.Fatalf("p=%d: scatter = %v, want %v", n, out, xs)
		}
	}
}

func TestAllGatherAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for _, n := range testSizes {
		xs := randScalars(rng, n)
		m := machine.New(n, machine.Params{Ts: 5, Tw: 1})
		outs := make([][]Value, n)
		m.Run(func(proc *machine.Proc) {
			pr := Comm(proc)
			outs[pr.Rank()] = AllGather(pr, xs[pr.Rank()])
		})
		for r, got := range outs {
			if !algebra.EqualLists(got, xs) {
				t.Fatalf("p=%d: allgather proc %d = %v, want %v", n, r, got, xs)
			}
		}
	}
}

func TestIterLogPApplications(t *testing.T) {
	// Iter applies op.F ceil(log2 p) times on processor 0 only.
	op := algebra.OpBR(algebra.Add)
	for _, n := range []int{1, 2, 4, 8, 16} {
		out, res := runSPMD(n, machine.Params{Ts: 100, Tw: 1}, func(pr Comm) Value {
			return Iter(pr, op, algebra.Scalar(1))
		})
		want := algebra.Scalar(float64(n))
		if !algebra.Equal(out[0], want) {
			t.Fatalf("p=%d: iter = %v, want %v", n, out[0], want)
		}
		for r := 1; r < n; r++ {
			if !algebra.IsUndef(out[r]) {
				t.Fatalf("p=%d: proc %d = %v, want undefined", n, r, out[r])
			}
		}
		// No communication at all: makespan = log p computes of m = 1.
		if want := math.Log2(float64(n)); res.Makespan != want {
			t.Fatalf("p=%d: iter makespan = %g, want %g", n, res.Makespan, want)
		}
	}
}

func TestLog2Helpers(t *testing.T) {
	cases := []struct{ n, ceil, floor int }{
		{1, 0, 0}, {2, 1, 1}, {3, 2, 1}, {4, 2, 2}, {5, 3, 2},
		{6, 3, 2}, {7, 3, 2}, {8, 3, 3}, {9, 4, 3}, {1024, 10, 10},
	}
	for _, c := range cases {
		if got := log2Ceil(c.n); got != c.ceil {
			t.Errorf("log2Ceil(%d) = %d, want %d", c.n, got, c.ceil)
		}
		if got := log2Floor(c.n); got != c.floor {
			t.Errorf("log2Floor(%d) = %d, want %d", c.n, got, c.floor)
		}
	}
	if !IsPow2(8) || IsPow2(6) || IsPow2(0) {
		t.Error("IsPow2 misbehaves")
	}
}
