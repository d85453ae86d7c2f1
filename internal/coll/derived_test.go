package coll

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/golden"
	"repro/internal/machine"
	"repro/internal/rank"
)

// derivedRows runs one collective on the virtual machine vm and the native
// machine nm and renders a row for each: the makespan (virtual only), every
// rank's sent, received, words and ops counters, and a sha256 over every
// rank's result bits.
func derivedRows(vm *machine.Machine, nm *backend.Machine, name string, p, m int, body func(c Comm) Value) []string {
	row := func(backendName string, run func(body func(c Comm)) string) string {
		bits := make([][]byte, p)
		n := make([]rank.Counters, p)
		makespan := run(func(c Comm) {
			bits[c.Rank()] = golden.AppendBits(nil, body(c))
			n[c.Rank()] = c.(interface{ Counters() rank.Counters }).Counters()
		})
		sent, recv, words, ops := make([]int, p), make([]int, p), make([]int, p), make([]float64, p)
		for r, c := range n {
			sent[r], recv[r], words[r], ops[r] = c.Sent, c.Received, c.Words, c.Ops
		}
		h := sha256.New()
		for _, b := range bits {
			h.Write(b)
		}
		return fmt.Sprintf("%s %s p=%d m=%d%s sent=[%s] recv=[%s] words=[%s] ops=[%s] results=%x",
			backendName, name, p, m, makespan, rle(sent), rle(recv), rle(words), rle(ops), h.Sum(nil))
	}
	return []string{
		row("virtual", func(b func(Comm)) string {
			return fmt.Sprintf(" makespan=%g", vm.Run(func(pr *machine.Proc) { b(pr) }).Makespan)
		}),
		row("native", func(b func(Comm)) string {
			nm.Run(func(pr *backend.Proc) { b(pr) })
			return ""
		}),
	}
}

// derivedInputs draws one input per rank at m words: a Vec block (vec), a
// pair of Vec blocks, which no flat kernel takes (boxed), and the Vec
// blocks with every rank but root undetermined (undef).
func derivedInputs(p, m, root int) map[string][]Value {
	rng := rand.New(rand.NewSource(int64(p*10007 + m)))
	vec := func() algebra.Vec {
		v := make(algebra.Vec, m)
		for j := range v {
			v[j] = rng.Float64()*2 - 1
		}
		return v
	}
	in := map[string][]Value{"vec": make([]Value, p), "boxed": make([]Value, p), "undef": make([]Value, p)}
	for r := 0; r < p; r++ {
		in["vec"][r] = vec()
		in["boxed"][r] = algebra.Tuple{vec(), vec()}
		in["undef"][r] = algebra.Undef{}
	}
	in["undef"][root] = in["vec"][root]
	return in
}

// derivedLines runs the derived collectives' grid: backend ∈ {virtual,
// native} × p ∈ 1..32 × m ∈ {1, 16, 64} × BcastRepeat and Comcast at roots
// {0, p−1} over the three comcast pairs, and Iter over the three Local-rule
// operators, each on derivedInputs' vec, boxed and undef inputs; and
// ScanBalanced over op_ss(+) and op_ss(max) on quadruples of Vec blocks
// (flat) and of pairs (boxed). The virtual machine runs at ts = 100, tw = 1.
func derivedLines() []string {
	repeats := []*algebra.RepeatOps{
		algebra.OpCompBS(algebra.Add), algebra.OpCompBSS2(algebra.Mul, algebra.Add), algebra.OpCompBSS(algebra.Add),
	}
	iters := []*algebra.IterOp{algebra.OpBR(algebra.Add), algebra.OpBSR2(algebra.Mul, algebra.Add), algebra.OpBSR(algebra.Add)}
	scans := []*algebra.BalancedScanOp{algebra.OpSS(algebra.Add), algebra.OpSS(algebra.Max)}
	var lines []string
	for p := 1; p <= 32; p++ {
		vm := machine.New(p, machine.Params{Ts: 100, Tw: 1})
		nm := backend.New(p)
		row := func(name string, m int, body func(c Comm) Value) {
			lines = append(lines, derivedRows(vm, nm, name, p, m, body)...)
		}
		for _, m := range []int{1, 16, 64} {
			for _, root := range slices.Compact([]int{0, p - 1}) {
				ins := derivedInputs(p, m, root)
				for _, kind := range []string{"vec", "boxed", "undef"} {
					in := ins[kind]
					for _, ops := range repeats {
						row(fmt.Sprintf("bcast-repeat %s in=%s root=%d", ops.Name, kind, root), m, func(c Comm) Value {
							return BcastRepeat(c, root, ops, in[c.Rank()])
						})
						row(fmt.Sprintf("comcast %s in=%s root=%d", ops.Name, kind, root), m, func(c Comm) Value {
							return Comcast(c, root, ops, in[c.Rank()])
						})
					}
					if root != 0 {
						continue
					}
					for _, op := range iters {
						row(fmt.Sprintf("iter %s in=%s", op.Name, kind), m, func(c Comm) Value {
							return Iter(c, op, in[c.Rank()])
						})
					}
				}
				if root != 0 {
					continue
				}
				flat, boxed := make([]Value, p), make([]Value, p)
				for r := range flat {
					v, b := ins["vec"][r], ins["boxed"][r]
					flat[r] = algebra.Tuple{v, ins["vec"][(r+1)%p], v, ins["vec"][(r+2)%p]}
					boxed[r] = algebra.Tuple{b, ins["boxed"][(r+1)%p], b, ins["boxed"][(r+2)%p]}
				}
				for _, op := range scans {
					for _, in := range []struct {
						name string
						xs   []Value
					}{{"flat", flat}, {"boxed", boxed}} {
						row(fmt.Sprintf("scan-balanced %s in=%s", op.Name, in.name), m, func(c Comm) Value {
							return ScanBalanced(c, op, in.xs[c.Rank()])
						})
					}
				}
			}
		}
	}
	return lines
}

// TestRecordedDerived: on the virtual and the native machine,
// BcastRepeat, Comcast, Iter and ScanBalanced take the virtual time, send
// the messages and words, charge the operations and return the bits of
// testdata/derived.golden, recorded when each collective chose between its
// operator's flat kernels and boxed reference itself. Its 1 080 comcast
// rows on undetermined non-root inputs were re-recorded when a non-root
// member came to be charged by the state it steps: their ops moved, and
// no makespan or result bit.
func TestRecordedDerived(t *testing.T) {
	golden.Check(t, "testdata/derived.golden", derivedLines(), nil)
}

// TestWarmDerivedCollectivesAllocs pins a warm native BcastRepeat,
// Comcast, Iter and ScanBalanced at no allocation beyond the run itself at
// p = 8, m = 64 and m = 4096 on Vec blocks (quadruples of them for the
// balanced scan), the inputs their operators' flat kernels take: π₁ of a
// flat state is a view boxed once and kept with the state, and the
// balanced scan returns its flat state.
func TestWarmDerivedCollectivesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const p = 8
	nm := backend.New(p)
	perRun := func(body func(*backend.Proc)) float64 {
		nm.Run(body) // grows the arena and the mailboxes
		return testing.AllocsPerRun(100, func() { nm.Run(body) })
	}
	base := perRun(func(*backend.Proc) {})
	bss, bsr, ss := algebra.OpCompBSS(algebra.Add), algebra.OpBSR(algebra.Add), algebra.OpSS(algebra.Add)
	for _, m := range []int{64, 4096} {
		in := derivedInputs(p, m, 0)["vec"]
		quad := make([]Value, p)
		for r, v := range in {
			quad[r] = algebra.Tuple{v, in[(r+1)%p], v, in[(r+2)%p]}
		}
		for _, c := range []struct {
			name string
			run  func(c Comm)
		}{
			{"bcast-repeat", func(c Comm) { BcastRepeat(c, 0, bss, in[c.Rank()]) }},
			{"comcast", func(c Comm) { Comcast(c, 0, bss, in[c.Rank()]) }},
			{"iter", func(c Comm) { Iter(c, bsr, in[c.Rank()]) }},
			{"scan-balanced", func(c Comm) { ScanBalanced(c, ss, quad[c.Rank()]) }},
		} {
			if got := perRun(func(pr *backend.Proc) { c.run(pr) }) - base; got != 0 {
				t.Errorf("%s at p=%d, m=%d: %.0f allocs per run beyond an empty one, want 0", c.name, p, m, got)
			}
		}
	}
}

// TestComcastIgnoresNonRootInputs: a non-root member steps the working
// state it receives, so its clock and charged operations are those of that
// state whatever its own input is — a block, another block's length, or
// undetermined. At p = 8, m = 16, ts = 100, tw = 1 rank 1's clock ends at
// 492 with op_comp_bs(+); charged by its own undetermined input, it ended
// at 428.
func TestComcastIgnoresNonRootInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, ops := range []*algebra.RepeatOps{algebra.OpCompBS(algebra.Add), algebra.OpCompBSS(algebra.Add)} {
		for _, p := range []int{2, 3, 5, 8, 13} {
			for _, root := range []int{0, p - 1} {
				vm := machine.New(p, machine.Params{Ts: 100, Tw: 1})
				run := func(nonRoot func() Value) (clocks, charged []float64) {
					in := make([]Value, p)
					for r := range in {
						in[r] = nonRoot()
					}
					in[root] = Value(make(algebra.Vec, 16))
					clocks, charged = make([]float64, p), make([]float64, p)
					vm.Run(func(pr *machine.Proc) {
						Comcast(pr, root, ops, in[pr.Rank()])
						clocks[pr.Rank()], charged[pr.Rank()] = pr.Clock(), pr.Counters().Ops
					})
					return clocks, charged
				}
				wantClocks, wantOps := run(func() Value { return make(algebra.Vec, 16) })
				for name, nonRoot := range map[string]func() Value{
					"undef": func() Value { return algebra.Undef{} },
					"short": func() Value { return make(algebra.Vec, 1+rng.Intn(15)) },
				} {
					clocks, got := run(nonRoot)
					if !slices.Equal(clocks, wantClocks) || !slices.Equal(got, wantOps) {
						t.Errorf("%s p=%d root=%d, %s non-root inputs: clocks %v ops %v, want %v and %v",
							ops.Name, p, root, name, clocks, got, wantClocks, wantOps)
					}
				}
				if ops.Name == "op_comp_bs(+)" && p == 8 && root == 0 && wantClocks[1] != 492 {
					t.Errorf("p=8: rank 1's clock ends at %g, want 492", wantClocks[1])
				}
			}
		}
	}
}
