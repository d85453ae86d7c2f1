package coll

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/golden"
	"repro/internal/machine"
	"repro/internal/rank"
)

// scanOps are the operators of the scan grid: the three kernel base
// operators, a non-commutative operator on values the arena does not
// hold, and a derived operator on flat pairs.
var scanOps = []*algebra.Op{
	algebra.Add, algebra.Mul, algebra.Max, algebra.MatMul,
	algebra.OpSR2(algebra.Mul, algebra.Add),
}

// scanInputs draws one block per rank for op at m words: a Vec, a pair
// of Vecs for op_sr2, and for matmul the square matrix of side ⌈√m⌉.
func scanInputs(op *algebra.Op, p, m int) []Value {
	rng := rand.New(rand.NewSource(int64(p*10007 + m)))
	vec := func(n int) algebra.Vec {
		v := make(algebra.Vec, n)
		for j := range v {
			v[j] = rng.Float64()*2 - 1
		}
		return v
	}
	in := make([]Value, p)
	for r := range in {
		switch {
		case op == algebra.MatMul:
			k := int(math.Ceil(math.Sqrt(float64(m))))
			in[r] = algebra.NewMat(k, k, vec(k*k)...)
		case op.Arity == 2:
			in[r] = algebra.Tuple{vec(m), vec(m)}
		default:
			in[r] = vec(m)
		}
	}
	return in
}

// scanLine runs one scan of in and renders its row. run executes the
// body on a backend and returns its counters; the makespan is rendered
// only when it is virtual time.
func scanLine(name, inName string, op *algebra.Op, in []Value, m int, run func(body func(c Comm)) (makespan string, msgs, words int, ops float64)) string {
	p := len(in)
	bits := make([][]byte, p)
	rankOps := make([]float64, p)
	makespan, msgs, words, ops := run(func(c Comm) {
		r := c.Rank()
		bits[r] = golden.AppendBits(nil, Scan(c, op, in[r]))
		rankOps[r] = c.(interface{ Counters() rank.Counters }).Counters().Ops
	})
	h := sha256.New()
	for _, b := range bits {
		h.Write(b)
	}
	return fmt.Sprintf("%s %s%s p=%d m=%d%s ops=%g messages=%d words=%d rank-ops=[%s] results=%x",
		name, op.Name, inName, p, m, makespan, ops, msgs, words, rle(rankOps), h.Sum(nil))
}

// scanLines runs the grid: backend ∈ {virtual, native} × p ∈ 1..64 ×
// scanOps × m ∈ {1, 3, 64}, and + once more with every third block
// undetermined (as a non-root's gather result is), which a combine
// propagates and the virtual machine charges no words. The virtual
// machine runs at ts = 100, tw = 1.
func scanLines() []string {
	var lines []string
	for p := 1; p <= 64; p++ {
		vm := machine.New(p, machine.Params{Ts: 100, Tw: 1})
		nm := backend.New(p)
		row := func(op *algebra.Op, inName string, in []Value, m int) {
			lines = append(lines, scanLine("virtual", inName, op, in, m, func(body func(Comm)) (string, int, int, float64) {
				res := vm.Run(func(pr *machine.Proc) { body(pr) })
				return fmt.Sprintf(" makespan=%g", res.Makespan), res.Messages, res.Words, res.Ops
			}))
			lines = append(lines, scanLine("native", inName, op, in, m, func(body func(Comm)) (string, int, int, float64) {
				res := nm.Run(func(pr *backend.Proc) { body(pr) })
				return "", res.Messages, res.Words, res.Ops
			}))
		}
		for _, m := range []int{1, 3, 64} {
			for _, op := range scanOps {
				row(op, "", scanInputs(op, p, m), m)
			}
			in := scanInputs(algebra.Add, p, m)
			for r := 1; r < p; r += 3 {
				in[r] = algebra.Undef{}
			}
			row(algebra.Add, " undef-every-3rd", in, m)
		}
	}
	return lines
}

// TestRecordedScan: on the virtual and the native machine, a scan takes
// the virtual time, sends the messages and words, charges the operations
// and returns the bits of testdata/scan.golden. It was recorded from the
// scan that performed every combine it charged and re-recorded when the
// last phase became one-way, which moved the messages and words and, in
// rows with an undetermined block, a makespan or a charge; no result bit.
func TestRecordedScan(t *testing.T) {
	golden.Check(t, "testdata/scan.golden", scanLines(), nil)
}

// scanCombines returns, per word of the block, the combines a scan over
// p members charges (charged) and those it performs (performed). Leader
// i of the q = 2^L butterfly combines its prefix in the phases whose bit
// of i is set, and its total in every phase but the last, except phase 0
// when bit 0 is set (the prefix is the total there). A leader i < r of
// the p = q + r fold also folds once and upkeeps its exclusive prefix in
// all but the first phase with a set bit; its partner appends its own
// element to that prefix when i > 0. Charged work counts every phase's
// two combines, as equation (17) does.
func scanCombines(p int) (charged, performed int) {
	if p == 1 {
		return 0, 0
	}
	L := log2Floor(p)
	q := 1 << L
	r := p - q
	for i := 0; i < q; i++ {
		ones := bits.OnesCount(uint(i))
		fold := 0
		if i < r {
			fold = 1 + max(ones-1, 0) // the fold and the exclusive prefix
			if i > 0 {
				fold++ // the partner's append
			}
		}
		charged += ones + L + fold
		total := L - 1
		if L >= 2 && i&1 == 1 {
			total--
		}
		performed += ones + total + fold
	}
	return charged, performed
}

// TestScanCombinesOnlyWhatIsRead counts the combines a scan performs
// with an operator whose function counts its calls. At every p ∈ 1..64,
// on both machines, it performs the closed form of scanCombines — at
// p = 2^L ≥ 4, 1.5·p·L − 1.5·p per word, a third fewer than the 1.5·p·L
// it charges at p = 8 — and its Ops are still those of every combine
// equation (17) counts, which the scan once performed.
func TestScanCombinesOnlyWhatIsRead(t *testing.T) {
	var calls atomic.Int64
	op := algebra.NewBase("counted+", func(x, y float64) float64 {
		calls.Add(1)
		return x + y
	})
	for _, p := range []int{4, 8, 16} {
		charged, performed := scanCombines(p)
		L := float64(log2Floor(p))
		if want := 1.5 * float64(p) * L; float64(charged) != want {
			t.Fatalf("p=%d: closed form charges %d, want 1.5·p·L = %g", p, charged, want)
		}
		if want := 1.5*float64(p)*L - 1.5*float64(p); float64(performed) != want {
			t.Fatalf("p=%d: closed form performs %d, want 1.5·p·L − 1.5·p = %g", p, performed, want)
		}
	}
	const m = 5
	for p := 1; p <= 64; p++ {
		charged, performed := scanCombines(p)
		in := make([]Value, p)
		for r, v := range randBlocks(rand.New(rand.NewSource(int64(p))), p, m) {
			in[r] = v
		}
		want := seqScan(op, in)
		vm := machine.New(p, machine.Params{Ts: 100, Tw: 1})
		nm := backend.New(p)
		for _, b := range []struct {
			name string
			run  func(body func(Comm)) float64
		}{
			{"virtual", func(body func(Comm)) float64 {
				return vm.Run(func(pr *machine.Proc) { body(pr) }).Ops
			}},
			{"native", func(body func(Comm)) float64 {
				return nm.Run(func(pr *backend.Proc) { body(pr) }).Ops
			}},
		} {
			calls.Store(0)
			var wrong atomic.Bool
			ops := b.run(func(c Comm) {
				if !algebra.Equal(Scan(c, op, in[c.Rank()]), want[c.Rank()]) {
					wrong.Store(true)
				}
			})
			if wrong.Load() {
				t.Fatalf("%s p=%d: scan result differs from the sequential prefix", b.name, p)
			}
			if got := calls.Load(); got != int64(performed*m) {
				t.Errorf("%s p=%d: %d combines per word performed, want %d", b.name, p, got/m, performed)
			}
			if ops != float64(charged*m) {
				t.Errorf("%s p=%d: Ops = %g, want %d (%d combines per word charged)", b.name, p, ops, charged*m, charged)
			}
		}
	}
}

// TestWarmScanAllocs holds a warm native scan at p = 8, m = 64 to the
// heap allocations it made when it performed every combine it charged:
// the combines it no longer performs drew from the rank's arena, so
// dropping them frees no heap allocation and must add none.
func TestWarmScanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const p, m = 8, 64
	nm := backend.New(p)
	perRun := func(body func(*backend.Proc)) float64 {
		nm.Run(body) // grows the arena and the mailboxes
		return testing.AllocsPerRun(100, func() { nm.Run(body) })
	}
	base := perRun(func(*backend.Proc) {})
	for _, c := range []struct {
		op  *algebra.Op
		max float64 // four per rank box the flat pair it returns
	}{
		{algebra.Add, 0},
		{algebra.OpSR2(algebra.Mul, algebra.Add), 32},
	} {
		in := scanInputs(c.op, p, m)
		got := perRun(func(pr *backend.Proc) { Scan(pr, c.op, in[pr.Rank()]) }) - base
		t.Logf("%-14s %3.0f allocs per run", c.op.Name, got)
		if got > c.max {
			t.Errorf("scan(%s) at p=%d, m=%d: %.0f allocs per run beyond an empty one, want at most %.0f", c.op.Name, p, m, got, c.max)
		}
	}
}
