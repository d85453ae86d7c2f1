package exper

import (
	"math/bits"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/mpbackend"
	"repro/internal/term"
)

// TestComcastWorkOptimality makes §3.4's cost-optimality discussion
// measurable: the doubling comcast is *work*-optimal — every g^i(b) is
// computed once, total work Θ(p·m) — while bcast;repeat redundantly
// recomputes low digits on every processor, total work Θ(p·m·log p). Yet
// the doubling scheme ships the auxiliary variables (2m words per spawn)
// and is therefore *slower* in time. All three facts are checked on the
// machine's accounting.
func TestComcastWorkOptimality(t *testing.T) {
	ops := algebra.OpCompBS(algebra.Add)
	mach := core.Machine{Ts: 5000, Tw: 1, P: 64, M: 256}
	in := mpbackend.SeededInputs(2, mach.P, mach.M)

	repeat := core.FromTerm(term.Comcast{Ops: ops})
	doubling := core.FromTerm(term.Comcast{Ops: ops, CostOptimal: true})

	_, resRepeat := repeat.Run(mach, in)
	_, resDoubling := doubling.Run(mach, in)

	// 1. The doubling comcast does asymptotically less work.
	if resDoubling.Ops >= resRepeat.Ops {
		t.Fatalf("doubling comcast ops (%g) not below bcast;repeat ops (%g)",
			resDoubling.Ops, resRepeat.Ops)
	}
	// Quantitatively: repeat work ≈ p·log p·2m, doubling ≈ p·3m; the
	// ratio should be around (2·log p)/3 ≈ 4 at p = 64.
	ratio := resRepeat.Ops / resDoubling.Ops
	if ratio < 2 || ratio > 8 {
		t.Fatalf("work ratio = %g, expected around 4", ratio)
	}

	// 2. But it moves more data: 2m words per spawned processor against
	// m per broadcast edge.
	if resDoubling.Words <= resRepeat.Words {
		t.Fatalf("doubling comcast words (%d) not above bcast;repeat words (%d)",
			resDoubling.Words, resRepeat.Words)
	}

	// 3. And it is slower in time — the paper's punchline.
	if resDoubling.Makespan <= resRepeat.Makespan {
		t.Fatalf("doubling comcast (%g) not slower than bcast;repeat (%g)",
			resDoubling.Makespan, resRepeat.Makespan)
	}
}

// TestBcastVolume pins the communication volume of the binomial
// broadcast: every processor except the root receives the block exactly
// once, so the total volume is (p−1)·m words.
func TestBcastVolume(t *testing.T) {
	mach := core.Machine{Ts: 10, Tw: 1, P: 16, M: 32}
	prog := core.NewProgram().Bcast()
	in := mpbackend.SeededInputs(3, mach.P, mach.M)
	_, res := prog.Run(mach, in)
	if want := (mach.P - 1) * mach.M; res.Words != want {
		t.Fatalf("bcast volume = %d words, want %d", res.Words, want)
	}
	if res.Messages != mach.P-1 {
		t.Fatalf("bcast messages = %d, want %d", res.Messages, mach.P-1)
	}
}

// TestScanVolume pins the communication volume of the butterfly scan on
// the virtual and the native machine. With q = 2^L = 2^⌊log p⌋ leaders
// and r = p − q folded pairs, the fold and the unfold ship one message
// per pair each and the leaders' L phases q messages each, but the last
// phase only q/2: there only the higher partner reads the other's total.
// Every message is a block but one: with r > 0, the first pair's leader
// has no exclusive prefix and hands back the empty one, Undef, of no words.
func TestScanVolume(t *testing.T) {
	const m = 8
	prog := core.NewProgram().Scan(algebra.Add)
	for p := 1; p <= 64; p++ {
		L := bits.Len(uint(p)) - 1
		q := 1 << L
		want := 0
		if p > 1 {
			want = 2*(p-q) + q*L - q/2
		}
		words := want * m
		if p > q {
			words -= m
		}
		in := mpbackend.SeededInputs(5, p, m)
		_, vres := prog.Run(core.Machine{Ts: 10, Tw: 1, P: p, M: m}, in)
		_, nres := prog.RunNative(p, in)
		for _, got := range []struct {
			name            string
			messages, words int
		}{{"virtual", vres.Messages, vres.Words}, {"native", nres.Messages, nres.Words}} {
			if got.messages != want || got.words != words {
				t.Errorf("%s scan at p=%d: %d messages and %d words, want %d and %d",
					got.name, p, got.messages, got.words, want, words)
			}
		}
	}
}

// TestRuleReducesVolume: SR2-Reduction halves the number of transfers
// (one butterfly instead of two) at the price of doubling each message.
func TestRuleReducesVolume(t *testing.T) {
	mach := core.Machine{Ts: 5000, Tw: 1, P: 32, M: 64}
	in := mpbackend.SeededInputs(4, mach.P, mach.M)
	lhs := core.NewProgram().Scan(algebra.Mul).Reduce(algebra.Add)
	opt := lhs.Optimize(mach)
	if len(opt.Applications) != 1 {
		t.Fatalf("applications = %v", opt.Applications)
	}
	_, before := lhs.Run(mach, in)
	_, after := opt.Program.Run(mach, in)
	if after.Messages >= before.Messages {
		t.Fatalf("messages did not drop: %d -> %d", before.Messages, after.Messages)
	}
	// Volume stays comparable: half the transfers, twice the words each.
	if after.Words > before.Words+mach.P*mach.M {
		t.Fatalf("volume exploded: %d -> %d", before.Words, after.Words)
	}
}
