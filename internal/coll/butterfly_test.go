package coll

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/golden"
	"repro/internal/machine"
	"repro/internal/rank"
)

// machineRows runs one collective on the virtual machine vm and the
// native machine nm and renders a row for each like scanLine's; body
// returns the bits of the caller's result.
func machineRows(vm *machine.Machine, nm *backend.Machine, name string, p, m int, body func(c Comm) []byte) []string {
	row := func(backendName string, run func(body func(c Comm)) (makespan string, msgs, words int, ops float64)) string {
		bits := make([][]byte, p)
		rankOps := make([]float64, p)
		makespan, msgs, words, ops := run(func(c Comm) {
			r := c.Rank()
			bits[r] = body(c)
			rankOps[r] = c.(interface{ Counters() rank.Counters }).Counters().Ops
		})
		h := sha256.New()
		for _, b := range bits {
			h.Write(b)
		}
		return fmt.Sprintf("%s %s p=%d m=%d%s ops=%g messages=%d words=%d rank-ops=[%s] results=%x",
			backendName, name, p, m, makespan, ops, msgs, words, rle(rankOps), h.Sum(nil))
	}
	return []string{
		row("virtual", func(b func(Comm)) (string, int, int, float64) {
			res := vm.Run(func(pr *machine.Proc) { b(pr) })
			return fmt.Sprintf(" makespan=%g", res.Makespan), res.Messages, res.Words, res.Ops
		}),
		row("native", func(b func(Comm)) (string, int, int, float64) {
			res := nm.Run(func(pr *backend.Proc) { b(pr) })
			return "", res.Messages, res.Words, res.Ops
		}),
	}
}

// listBits appends the bits of a gathered list, or a marker for nil.
func listBits(vs []Value) []byte {
	if vs == nil {
		return []byte{'n'}
	}
	b := []byte{'l', byte(len(vs))}
	for _, v := range vs {
		b = golden.AppendBits(b, v)
	}
	return b
}

// butterflyLines runs the butterfly family's grid: backend ∈ {virtual,
// native} × p ∈ 1..64 × m ∈ {1, 3, 64} × scan.golden's inputs (scanOps,
// and + with every third block undetermined) × Bcast and Reduce at roots
// {0, p/2, p−1}, AllReduce, Gather at the same roots and AllGather. The
// virtual machine runs at ts = 100, tw = 1.
func butterflyLines() []string {
	var lines []string
	for p := 1; p <= 64; p++ {
		vm := machine.New(p, machine.Params{Ts: 100, Tw: 1})
		nm := backend.New(p)
		roots := slices.Compact([]int{0, p / 2, p - 1})
		row := func(name string, m int, body func(c Comm) []byte) {
			lines = append(lines, machineRows(vm, nm, name, p, m, body)...)
		}
		// inName names the inputs: the operator's own, or + with holes.
		collectives := func(op *algebra.Op, inName string, in []Value, m int) {
			for _, root := range roots {
				row(fmt.Sprintf("bcast in=%s root=%d", inName, root), m, func(c Comm) []byte {
					return golden.AppendBits(nil, Bcast(c, root, in[c.Rank()]))
				})
				row(fmt.Sprintf("reduce %s in=%s root=%d", op.Name, inName, root), m, func(c Comm) []byte {
					return golden.AppendBits(nil, Reduce(c, root, op, in[c.Rank()]))
				})
				row(fmt.Sprintf("gather in=%s root=%d", inName, root), m, func(c Comm) []byte {
					return listBits(Gather(c, root, in[c.Rank()]))
				})
			}
			row(fmt.Sprintf("allreduce %s in=%s", op.Name, inName), m, func(c Comm) []byte {
				return golden.AppendBits(nil, AllReduce(c, op, in[c.Rank()]))
			})
			row(fmt.Sprintf("allgather in=%s", inName), m, func(c Comm) []byte {
				return listBits(AllGather(c, in[c.Rank()]))
			})
		}
		for _, m := range []int{1, 3, 64} {
			for _, op := range scanOps {
				collectives(op, op.Name, scanInputs(op, p, m), m)
			}
			in := scanInputs(algebra.Add, p, m)
			for r := 1; r < p; r += 3 {
				in[r] = algebra.Undef{}
			}
			collectives(algebra.Add, "undef-every-3rd", in, m)
		}
	}
	return lines
}

// TestRecordedButterfly: on the virtual and the native machine, Bcast,
// Reduce, AllReduce, Gather and AllGather take the virtual time, send the
// messages and words, charge the operations and return the bits they did
// as hand-written loops (testdata/butterfly.golden, recorded from that
// code).
func TestRecordedButterfly(t *testing.T) {
	golden.Check(t, "testdata/butterfly.golden", butterflyLines(), nil)
}

// balancedLines runs ReduceBalanced and AllReduceBalanced over the same
// backends, p and m as butterflyLines, with op_sr over +, * and max on
// pairs of blocks.
func balancedLines() []string {
	var lines []string
	for p := 1; p <= 64; p++ {
		vm := machine.New(p, machine.Params{Ts: 100, Tw: 1})
		nm := backend.New(p)
		row := func(name string, m int, body func(c Comm) []byte) {
			lines = append(lines, machineRows(vm, nm, name, p, m, body)...)
		}
		for _, m := range []int{1, 3, 64} {
			for _, base := range []*algebra.Op{algebra.Add, algebra.Mul, algebra.Max} {
				op := algebra.OpSR(base)
				in := scanInputs(op, p, m)
				row("reduce-balanced "+op.Name, m, func(c Comm) []byte {
					return golden.AppendBits(nil, ReduceBalanced(c, op, in[c.Rank()]))
				})
				row("allreduce-balanced "+op.Name, m, func(c Comm) []byte {
					return golden.AppendBits(nil, AllReduceBalanced(c, op, in[c.Rank()]))
				})
			}
		}
	}
	return lines
}

// TestRecordedBalanced: the balanced reduction and all-reduction take the
// virtual time, send the messages and words, charge the operations and
// return the bits they did as a hand-written recursion
// (testdata/balanced.golden, recorded from that code).
func TestRecordedBalanced(t *testing.T) {
	golden.Check(t, "testdata/balanced.golden", balancedLines(), nil)
}

// TestWarmButterflyAllocs pins a warm native Bcast, Reduce and AllReduce
// at no allocation beyond the run itself at p = 8, m = 64: a whole
// schedule runs as its generator makes it, its combines draw from the
// rank's arena, and a derived operator's result is returned flat.
func TestWarmButterflyAllocs(t *testing.T) {
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
	sr2 := algebra.OpSR2(algebra.Mul, algebra.Add)
	for _, c := range []struct {
		name string
		run  func(c Comm, op *algebra.Op, x Value)
	}{
		{"bcast", func(c Comm, _ *algebra.Op, x Value) { Bcast(c, 0, x) }},
		{"reduce", func(c Comm, op *algebra.Op, x Value) { Reduce(c, 0, op, x) }},
		{"allreduce", func(c Comm, op *algebra.Op, x Value) { AllReduce(c, op, x) }},
	} {
		for _, op := range []*algebra.Op{algebra.Add, sr2} {
			in := scanInputs(op, p, m)
			if got := perRun(func(pr *backend.Proc) { c.run(pr, op, in[pr.Rank()]) }) - base; got != 0 {
				t.Errorf("%s(%s) at p=%d, m=%d: %.0f allocs per run beyond an empty one, want 0", c.name, op.Name, p, m, got)
			}
		}
	}
}
