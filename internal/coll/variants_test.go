package coll

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/machine"
)

func TestBcastLinearAllSizes(t *testing.T) {
	for _, n := range testSizes {
		out, _ := runSPMD(n, machine.Params{Ts: 10, Tw: 1}, func(pr Comm) Value {
			x := Value(algebra.Undef{})
			if pr.Rank() == 0 {
				x = algebra.Scalar(5)
			}
			return BcastWith(pr, 0, x, BcastLinear)
		})
		for r, v := range out {
			if !algebra.Equal(v, algebra.Scalar(5)) {
				t.Fatalf("p=%d: proc %d got %v", n, r, v)
			}
		}
	}
}

func TestBcastScatterAllGatherAllSizes(t *testing.T) {
	for _, n := range testSizes {
		mWords := 3*n + 1 // not divisible by n: exercises remainder chunks
		want := make(algebra.Vec, mWords)
		for i := range want {
			want[i] = float64(i * i % 97)
		}
		out, _ := runSPMD(n, machine.Params{Ts: 10, Tw: 1}, func(pr Comm) Value {
			x := Value(algebra.Undef{})
			if pr.Rank() == 0 {
				x = want.Clone()
			}
			return BcastWith(pr, 0, x, BcastScatterAllGather)
		})
		for r, v := range out {
			if !algebra.Equal(v, want) {
				t.Fatalf("p=%d: proc %d got %v, want the full block", n, r, v)
			}
		}
	}
}

func TestBcastScatterAllGatherRejectsSmallBlocks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	// The root's panic leaves the other processors blocked in Recv, so
	// use a short deadlock timeout to end the run quickly.
	m := machine.New(4, machine.Params{})
	m.Timeout = 100 * time.Millisecond
	m.Run(func(proc *machine.Proc) {
		pr := Comm(proc)
		x := Value(algebra.Undef{})
		if pr.Rank() == 0 {
			x = algebra.Vec{1, 2} // fewer elements than members
		}
		BcastWith(pr, 0, x, BcastScatterAllGather)
	})
}

func TestBcastWithDefaultsToBinomial(t *testing.T) {
	out, res := runSPMD(8, machine.Params{Ts: 100, Tw: 1}, func(pr Comm) Value {
		x := Value(algebra.Undef{})
		if pr.Rank() == 0 {
			x = algebra.Scalar(1)
		}
		return BcastWith(pr, 0, x, BcastBinomial)
	})
	for _, v := range out {
		if !algebra.Equal(v, algebra.Scalar(1)) {
			t.Fatalf("out = %v", out)
		}
	}
	// log p · (ts + tw) = 3·101.
	if res.Makespan != 303 {
		t.Fatalf("makespan = %g, want 303", res.Makespan)
	}
}

func TestReduceLinearAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range testSizes {
		xs := randScalars(rng, n)
		out, _ := runSPMD(n, machine.Params{Ts: 2, Tw: 1}, func(pr Comm) Value {
			return ReduceLinear(pr, 0, algebra.Left, xs[pr.Rank()])
		})
		// Rank-ordered combining: left projection keeps x0.
		if !algebra.Equal(out[0], xs[0]) {
			t.Fatalf("p=%d: linear left-reduce = %v, want %v", n, out[0], xs[0])
		}
	}
}

func TestReduceLinearNonZeroRoot(t *testing.T) {
	xs := scalars(1, 2, 3, 4, 5)
	out, _ := runSPMD(5, machine.Params{}, func(pr Comm) Value {
		return ReduceLinear(pr, 2, algebra.Add, xs[pr.Rank()])
	})
	if !algebra.Equal(out[2], algebra.Scalar(15)) {
		t.Fatalf("linear reduce at root 2 = %v", out[2])
	}
}

func TestScanLinearAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, n := range testSizes {
		xs := randScalars(rng, n)
		out, _ := runSPMD(n, machine.Params{Ts: 2, Tw: 1}, func(pr Comm) Value {
			return ScanLinear(pr, algebra.Add, xs[pr.Rank()])
		})
		want := seqScan(algebra.Add, xs)
		if !algebra.EqualLists(out, want) {
			t.Fatalf("p=%d: linear scan = %v, want %v", n, out, want)
		}
	}
}

// TestVariantCostTradeoffs checks the textbook cost relationships the
// variants exist to demonstrate.
func TestVariantCostTradeoffs(t *testing.T) {
	p := 16
	run := func(params machine.Params, mWords int, alg BcastAlg) float64 {
		_, res := runSPMD(p, params, func(pr Comm) Value {
			x := Value(algebra.Undef{})
			if pr.Rank() == 0 {
				x = make(algebra.Vec, mWords)
			}
			return BcastWith(pr, 0, x, alg)
		})
		return res.Makespan
	}

	// Start-up dominated, small block: binomial (log p start-ups) beats
	// linear (p−1 start-ups).
	small := machine.Params{Ts: 1000, Tw: 1}
	if b, l := run(small, 16, BcastBinomial), run(small, 16, BcastLinear); b >= l {
		t.Errorf("small blocks: binomial (%g) should beat linear (%g)", b, l)
	}
	// Bandwidth dominated, large block: scatter/allgather (~2m words)
	// beats binomial (m·log p words).
	big := machine.Params{Ts: 10, Tw: 4}
	if v, b := run(big, 1<<16, BcastScatterAllGather), run(big, 1<<16, BcastBinomial); v >= b {
		t.Errorf("large blocks: scatter-allgather (%g) should beat binomial (%g)", v, b)
	}

	// Linear scan: p−1 start-ups end to end vs the butterfly's
	// log p — the butterfly wins whenever start-up matters.
	scanButterfly := func() float64 {
		_, res := runSPMD(p, small, func(pr Comm) Value {
			return Scan(pr, algebra.Add, algebra.Scalar(float64(pr.Rank())))
		})
		return res.Makespan
	}()
	scanLinear := func() float64 {
		_, res := runSPMD(p, small, func(pr Comm) Value {
			return ScanLinear(pr, algebra.Add, algebra.Scalar(float64(pr.Rank())))
		})
		return res.Makespan
	}()
	if scanButterfly >= scanLinear {
		t.Errorf("butterfly scan (%g) should beat linear scan (%g) at high start-up", scanButterfly, scanLinear)
	}
}

func TestBcastAlgString(t *testing.T) {
	for alg, want := range map[BcastAlg]string{
		BcastBinomial:         "binomial",
		BcastLinear:           "linear",
		BcastScatterAllGather: "scatter-allgather",
	} {
		if alg.String() != want {
			t.Errorf("String() = %q, want %q", alg.String(), want)
		}
	}
	if !strings.Contains(BcastAlg(9).String(), "9") {
		t.Error("unknown algorithm string")
	}
}

func TestBcastPipelinedAllSizes(t *testing.T) {
	for _, n := range testSizes {
		mWords := 40 + n
		want := make(algebra.Vec, mWords)
		for i := range want {
			want[i] = float64((i*7 + 3) % 53)
		}
		out, _ := runSPMD(n, machine.Params{Ts: 3, Tw: 1}, func(pr Comm) Value {
			x := Value(algebra.Undef{})
			if pr.Rank() == 0 {
				x = want.Clone()
			}
			return BcastWith(pr, 0, x, BcastPipelined)
		})
		for r, v := range out {
			if !algebra.Equal(v, want) {
				t.Fatalf("p=%d: proc %d got %v", n, r, v)
			}
		}
	}
}

func TestBcastPipelinedNonZeroRoot(t *testing.T) {
	want := make(algebra.Vec, 64)
	for i := range want {
		want[i] = float64(i)
	}
	out, _ := runSPMD(5, machine.Params{Ts: 3, Tw: 1}, func(pr Comm) Value {
		x := Value(algebra.Undef{})
		if pr.Rank() == 2 {
			x = want.Clone()
		}
		return BcastWith(pr, 2, x, BcastPipelined)
	})
	for r, v := range out {
		if !algebra.Equal(v, want) {
			t.Fatalf("proc %d got wrong block", r)
		}
	}
}

func TestBcastPipelinedBeatsBinomialOnLongMessages(t *testing.T) {
	// Store-and-forward pipelining costs ~2·m·tw end to end regardless
	// of p (each hop pays a receive and a forward per chunk), while the
	// binomial tree pays log p · m·tw — so the pipeline wins once
	// log p > 2. Check at p = 16 with a huge block.
	params := machine.Params{Ts: 10, Tw: 2}
	mWords := 1 << 16
	run := func(alg BcastAlg) float64 {
		_, res := runSPMD(16, params, func(pr Comm) Value {
			x := Value(algebra.Undef{})
			if pr.Rank() == 0 {
				x = make(algebra.Vec, mWords)
			}
			return BcastWith(pr, 0, x, alg)
		})
		return res.Makespan
	}
	if pipe, bin := run(BcastPipelined), run(BcastBinomial); pipe >= bin {
		t.Fatalf("pipelined (%g) should beat binomial (%g) for long messages on few processors", pipe, bin)
	}
}

func TestBcastPipelinedRejectsTinyBlocks(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := machine.New(3, machine.Params{})
	m.Timeout = 100 * time.Millisecond
	m.Run(func(proc *machine.Proc) {
		pr := Comm(proc)
		x := Value(algebra.Undef{})
		if pr.Rank() == 0 {
			x = algebra.Vec{1, 2}
		}
		BcastWith(pr, 0, x, BcastPipelined)
	})
}
