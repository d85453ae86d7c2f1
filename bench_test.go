// Package repro's root benchmark harness holds the ablations called out in
// DESIGN.md, the simulator's own host cost and the operator kernels'
// allocation table. The paper's tables and figures are not here:
// cmd/collbench prints them and internal/exper's tests pin them.
//
// The ablations report the *virtual* run time under the §4.1 cost model as
// the custom metric "vtime" (virtual time units per run). Two families are
// not virtual-time: BenchmarkCollectivesWallClock (the simulator's own host
// cost), BenchmarkKernelAllocs (the allocs/op table of docs/PERF.md) and
// BenchmarkDerivedKernels (the derived operators' flat forms, ns/op).
// Wall-clock performance of the native and multi-process backends, the
// planner and the daemon is bench/'s job (see bench/README.md), not this
// file's.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/term"
)

// parsytec approximates the paper's start-up-dominated Parsytec network.
var parsytec = core.Machine{Ts: 5000, Tw: 1}

func inputsFor(p, m int) []algebra.Value {
	in := make([]algebra.Value, p)
	for i := range in {
		b := make(algebra.Vec, m)
		for j := range b {
			b[j] = float64((i+j)%5 + 1)
		}
		in[i] = b
	}
	return in
}

func benchProgram(b *testing.B, prog core.Program, mach core.Machine) {
	in := inputsFor(mach.P, mach.M)
	var makespan float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, res := prog.Run(mach, in)
		makespan = res.Makespan
	}
	b.ReportMetric(makespan, "vtime")
}

// BenchmarkOpSRSharing is the DESIGN.md ablation of op_sr's shared uu:
// four vs five elementary operations per combine, measured end to end on
// a balanced reduction.
func BenchmarkOpSRSharing(b *testing.B) {
	mach := parsytec
	mach.P = 32
	mach.M = 256
	for name, op := range map[string]*algebra.Op{
		"shared_uu":  algebra.OpSR(algebra.Add),
		"no_sharing": algebra.OpSRNoSharing(algebra.Add),
	} {
		prog := core.NewProgram().
			Map(term.PairFn).
			ReduceBalanced(op).
			Map(term.FirstFn)
		b.Run(name, func(b *testing.B) {
			benchProgram(b, prog, mach)
		})
	}
}

// BenchmarkCollectivesWallClock measures the host-side cost of the raw
// collectives (goroutines + channels), independent of virtual time: the
// practical overhead of the simulator itself.
func BenchmarkCollectivesWallClock(b *testing.B) {
	for _, p := range []int{8, 64} {
		vm := machine.New(p, machine.Params{Ts: 1, Tw: 1})
		in := inputsFor(p, 64)
		for name, body := range map[string]func(pr coll.Comm) algebra.Value{
			"bcast": func(pr coll.Comm) algebra.Value {
				return coll.Bcast(pr, 0, in[pr.Rank()])
			},
			"allreduce": func(pr coll.Comm) algebra.Value {
				return coll.AllReduce(pr, algebra.Add, in[pr.Rank()])
			},
			"scan": func(pr coll.Comm) algebra.Value {
				return coll.Scan(pr, algebra.Add, in[pr.Rank()])
			},
		} {
			b.Run(fmt.Sprintf("p=%d/%s", p, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					vm.Run(func(pr *machine.Proc) { body(coll.Comm(pr)) })
				}
			})
		}
	}
}

// BenchmarkAllReduceAlgorithms compares the butterfly all-reduce (the
// paper's cost model) against the bandwidth-optimal ring
// (reduce-scatter + allgather) in both parameter regimes.
func BenchmarkAllReduceAlgorithms(b *testing.B) {
	cases := []struct {
		name   string
		params machine.Params
		words  int
	}{
		{"startup_small", machine.Params{Ts: 10000, Tw: 1}, 64},
		{"bandwidth_large", machine.Params{Ts: 10, Tw: 4}, 1 << 14},
	}
	for _, cse := range cases {
		for _, alg := range []cost.Algo{cost.AlgoButterfly, cost.AlgoRing} {
			vm := machine.New(16, cse.params)
			b.Run(cse.name+"/"+string(alg), func(b *testing.B) {
				var makespan float64
				for i := 0; i < b.N; i++ {
					res := vm.Run(func(pr *machine.Proc) {
						c := coll.Comm(pr)
						coll.ReduceBy(c, algebra.Add, make(algebra.Vec, cse.words), true, alg, 0)
					})
					makespan = res.Makespan
				}
				b.ReportMetric(makespan, "vtime")
			})
		}
	}
}

// BenchmarkKernelAllocs is the allocation table of the operator kernels:
// run with `go test -run=NONE -bench=KernelAllocs -benchmem` and read the
// allocs/op column. The in-place kernels (ApplyInto and the flat-tuple
// paths) must report 0 allocs/op — the regression tests in
// internal/algebra pin them there with testing.AllocsPerRun — while the
// boxed reference path shows what every combine used to cost.
func BenchmarkKernelAllocs(b *testing.B) {
	const m = 1024
	mkVec := func(seed int) algebra.Vec {
		v := make(algebra.Vec, m)
		for i := range v {
			v[i] = float64((seed+i)%7 + 1)
		}
		return v
	}
	flatOf := func(w int) *algebra.FlatTuple {
		ft := algebra.NewFlatTuple(w, m)
		for i := 0; i < w; i++ {
			copy(ft.Comp(i), mkVec(i))
		}
		return ft
	}

	b.Run("scalar/ApplyFloat", func(b *testing.B) {
		b.ReportAllocs()
		x, y, s := 3.0, 4.0, 0.0
		for i := 0; i < b.N; i++ {
			s = algebra.Add.ApplyFloat(s, x+y)
		}
		_ = s
	})
	b.Run("vec/Apply_reference", func(b *testing.B) {
		b.ReportAllocs()
		x, y := algebra.Value(mkVec(1)), algebra.Value(mkVec(2))
		for i := 0; i < b.N; i++ {
			algebra.Add.Apply(x, y)
		}
	})
	b.Run("vec/ApplyInto", func(b *testing.B) {
		b.ReportAllocs()
		x, y := algebra.Value(mkVec(1)), algebra.Value(mkVec(2))
		dst := algebra.Value(make(algebra.Vec, m))
		for i := 0; i < b.N; i++ {
			dst = algebra.Add.ApplyInto(dst, x, y)
		}
	})
	b.Run("flat/op_sr2_Apply_reference", func(b *testing.B) {
		b.ReportAllocs()
		op := algebra.OpSR2(algebra.Mul, algebra.Add)
		x := algebra.Value(algebra.Tuple{mkVec(1), mkVec(2)})
		y := algebra.Value(algebra.Tuple{mkVec(3), mkVec(4)})
		for i := 0; i < b.N; i++ {
			op.Apply(x, y)
		}
	})
	b.Run("flat/op_sr2_ApplyInto", func(b *testing.B) {
		b.ReportAllocs()
		op := algebra.OpSR2(algebra.Mul, algebra.Add)
		x, y := algebra.Value(flatOf(2)), algebra.Value(flatOf(2))
		dst := algebra.Value(algebra.NewFlatTuple(2, m))
		for i := 0; i < b.N; i++ {
			dst = op.ApplyInto(dst, x, y)
		}
	})
	b.Run("flat/op_ss_lo_hi", func(b *testing.B) {
		b.ReportAllocs()
		op := algebra.OpSS(algebra.Add)
		own, from := flatOf(4), flatOf(op.ShipWidth)
		ship := algebra.NewFlatTuple(op.ShipWidth, m)
		for i := 0; i < b.N; i++ {
			op.FlatShip(ship, own)
			op.FlatLo(own, own, ship)
			op.FlatHi(own, own, from)
		}
	})
	b.Run("flat/op_comp_bss_repeat", func(b *testing.B) {
		b.ReportAllocs()
		ops := algebra.OpCompBSS(algebra.Add)
		v, w := algebra.Value(mkVec(1)), algebra.Value(flatOf(ops.Arity))
		for i := 0; i < b.N; i++ {
			w = ops.RepeatIn(nil, w, 6, v)
		}
	})
}

// BenchmarkDerivedKernels times the flat form of every derived operator —
// the kernel the collectives run — at m = 16 words per component, the
// start-up regime of bench's exec-latency workload, and at m = 4096, near
// exec-bandwidth's, into a destination that is not an operand, so that
// every iteration computes the same words.
func BenchmarkDerivedKernels(b *testing.B) {
	add, mul := algebra.Add, algebra.Mul
	sr, ss := algebra.OpSR(add), algebra.OpSS(add)
	bs, bss2, bss := algebra.OpCompBS(add), algebra.OpCompBSS2(mul, add), algebra.OpCompBSS(add)
	unary := func(f func(dst, x *algebra.FlatTuple)) func(dst, x, _ *algebra.FlatTuple) {
		return func(dst, x, _ *algebra.FlatTuple) { f(dst, x) }
	}
	kernels := []struct {
		name string
		// w holds the widths of the result and of the operands, 0 for none.
		w [3]int
		f func(dst, x, y *algebra.FlatTuple)
	}{
		{"op_sr2", [3]int{2, 2, 2}, algebra.OpSR2(mul, add).FlatFn},
		{"op_new", [3]int{2, 2, 2}, algebra.OpNew(add, mul).FlatFn},
		{"op_sr", [3]int{2, 2, 2}, sr.FlatFn},
		{"op_sr_unary", [3]int{2, 2, 0}, unary(sr.FlatUnary)},
		{"op_sr_nosharing", [3]int{2, 2, 2}, algebra.OpSRNoSharing(add).FlatFn},
		{"op_ss_ship", [3]int{3, 4, 0}, unary(ss.FlatShip)},
		{"op_ss_lo", [3]int{4, 4, 3}, ss.FlatLo},
		{"op_ss_hi", [3]int{4, 4, 3}, ss.FlatHi},
		{"op_comp_bs_e", [3]int{2, 2, 0}, unary(bs.FlatE)},
		{"op_comp_bs_o", [3]int{2, 2, 0}, unary(bs.FlatO)},
		{"op_comp_bss2_e", [3]int{3, 3, 0}, unary(bss2.FlatE)},
		{"op_comp_bss2_o", [3]int{3, 3, 0}, unary(bss2.FlatO)},
		{"op_comp_bss_e", [3]int{4, 4, 0}, unary(bss.FlatE)},
		{"op_comp_bss_o", [3]int{4, 4, 0}, unary(bss.FlatO)},
		{"op_br", [3]int{1, 1, 0}, unary(algebra.OpBR(add).FlatF)},
		{"op_bsr2", [3]int{2, 2, 0}, unary(algebra.OpBSR2(mul, add).FlatF)},
		{"op_bsr", [3]int{2, 2, 0}, unary(algebra.OpBSR(add).FlatF)},
	}
	for _, m := range []int{16, 4096} {
		flat := func(w int) *algebra.FlatTuple {
			if w == 0 {
				return nil
			}
			ft := algebra.NewFlatTuple(w, m)
			for i := range ft.Data {
				ft.Data[i] = 1 + float64(i%7)/8
			}
			return ft
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s/m=%d", k.name, m), func(b *testing.B) {
				dst, x, y := flat(k.w[0]), flat(k.w[1]), flat(k.w[2])
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.f(dst, x, y)
				}
			})
		}
	}
}
