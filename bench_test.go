// Package repro's root benchmark harness regenerates the paper's
// evaluation artifacts as testing.B benchmarks on the virtual machine —
// one benchmark family per table and figure — and adds the ablations
// called out in DESIGN.md.
//
// Wall-clock ns/op measures the host cost of simulating each program;
// the paper's metric is the *virtual* run time under the §4.1 cost model,
// reported as the custom metric "vtime" (virtual time units per run).
// Two families are not virtual-time: BenchmarkCollectivesWallClock (the
// simulator's own host cost) and BenchmarkKernelAllocs (the allocs/op
// table of docs/PERF.md). Wall-clock performance of the native and
// multi-process backends, the planner and the daemon is bench/'s job
// (see bench/README.md), not this file's.
//
// Run with:
//
//	go test -bench=. -benchmem
package repro

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/apps"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exper"
	"repro/internal/machine"
	"repro/internal/rules"
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

// BenchmarkTable1 regenerates Table 1: for every optimization rule, the
// left-hand side and the rewritten right-hand side run on the virtual
// machine; compare the two vtime metrics per rule to read the table.
func BenchmarkTable1(b *testing.B) {
	mach := parsytec
	mach.P = 32
	mach.M = 16
	for _, pat := range exper.Patterns() {
		r, ok := rules.ByName(pat.Rule)
		if !ok {
			b.Fatalf("no rule %s", pat.Rule)
		}
		eng := rules.NewEngine()
		eng.Rules = []rules.Rule{r}
		eng.Env.P = mach.P
		opt, apps := eng.Optimize(pat.LHS.Term())
		if len(apps) != 1 {
			b.Fatalf("rule %s did not apply", pat.Rule)
		}
		b.Run(pat.Rule+"/before", func(b *testing.B) {
			benchProgram(b, pat.LHS, mach)
		})
		b.Run(pat.Rule+"/after", func(b *testing.B) {
			benchProgram(b, core.FromTerm(opt), mach)
		})
	}
}

// comcastProgs are the three variants of Figures 7 and 8.
func comcastProgs() map[string]core.Program {
	ops := algebra.OpCompBS(algebra.Add)
	return map[string]core.Program{
		"bcast_scan":   core.NewProgram().Bcast().Scan(algebra.Add),
		"comcast":      core.FromTerm(term.Comcast{Ops: ops, CostOptimal: true}),
		"bcast_repeat": core.FromTerm(term.Comcast{Ops: ops}),
	}
}

// figureMachine is the machine for the Figure 7/8 benches. The paper's
// curves (bcast;repeat < comcast < bcast;scan) hold in the start-up-
// dominated regime m·tw < ts the Parsytec experiments ran in, so the
// start-up is scaled up to keep that relation at the paper's 32·10³-word
// blocks.
var figureMachine = core.Machine{Ts: 50000, Tw: 1}

// BenchmarkFigure7 regenerates Figure 7: the three comcast variants as
// the machine grows, at fixed block size 32·10³ words (as in the paper).
func BenchmarkFigure7(b *testing.B) {
	const blockWords = 32000
	for p := 4; p <= 64; p *= 2 {
		for name, prog := range comcastProgs() {
			mach := figureMachine
			mach.P = p
			mach.M = blockWords
			b.Run(fmt.Sprintf("p=%d/%s", p, name), func(b *testing.B) {
				benchProgram(b, prog, mach)
			})
		}
	}
}

// BenchmarkFigure8 regenerates Figure 8: the same three variants on 64
// processors as the block size grows.
func BenchmarkFigure8(b *testing.B) {
	for _, m := range []int{5000, 15000, 25000, 35000} {
		for name, prog := range comcastProgs() {
			mach := figureMachine
			mach.P = 64
			mach.M = m
			b.Run(fmt.Sprintf("m=%d/%s", m, name), func(b *testing.B) {
				benchProgram(b, prog, mach)
			})
		}
	}
}

// BenchmarkFigure2 exercises the P1/P2 warm-up of Figure 2 as programs on
// the machine: the fused pair reduction against the plain reduction.
func BenchmarkFigure2(b *testing.B) {
	mach := parsytec
	mach.P = 16
	mach.M = 64
	opNew := algebra.OpNew(algebra.Add, algebra.Mul)
	b.Run("P1", func(b *testing.B) {
		benchProgram(b, core.NewProgram().AllReduce(algebra.Add), mach)
	})
	b.Run("P2", func(b *testing.B) {
		p2 := core.NewProgram().Map(term.PairFn).AllReduce(opNew).Map(term.FirstFn)
		benchProgram(b, p2, mach)
	})
}

// BenchmarkPolyEval regenerates the §5 case study timings.
func BenchmarkPolyEval(b *testing.B) {
	pe := exper.NewPolyEval(1, 32, 512)
	mach := parsytec
	mach.P = 32
	mach.M = 512
	in := make([]algebra.Value, 32)
	for i := range in {
		in[i] = pe.Points.Clone()
	}
	variants := map[string]core.Program{
		"PolyEval_1":      pe.Program1(),
		"PolyEval_2":      pe.Program2(),
		"PolyEval_3":      pe.Program3(),
		"comcast_optimal": pe.ProgramComcastOptimal(),
	}
	for name, prog := range variants {
		b.Run(name, func(b *testing.B) {
			var makespan float64
			for i := 0; i < b.N; i++ {
				_, res := prog.Run(mach, in)
				makespan = res.Makespan
			}
			b.ReportMetric(makespan, "vtime")
		})
	}
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

// BenchmarkApps measures the collective-only applications of
// internal/apps end to end.
func BenchmarkApps(b *testing.B) {
	mach := apps.Machine{P: 16, Ts: 1000, Tw: 1}
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = float64((i*2654435761)%101) - 50
	}
	b.Run("mss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apps.MSS(mach, xs)
		}
	})
	b.Run("statistics", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apps.Statistics(mach, xs)
		}
	})
	b.Run("samplesort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			apps.SampleSort(mach, xs)
		}
	})
	// The sparse workloads: a 2D torus stencil over halo exchanges, a
	// segmented scan over ragged blocks delivered by allgatherv, and a
	// graph-degree histogram over reduce_scatterv.
	grid := make([][]float64, 64)
	for i := range grid {
		grid[i] = xs[i*64 : (i+1)*64]
	}
	b.Run("stencil", func(b *testing.B) {
		var vtime float64
		for i := 0; i < b.N; i++ {
			_, res := apps.Stencil2D(mach, grid, 16, 1, 4)
			vtime = res.Makespan
		}
		b.ReportMetric(vtime, "vtime")
	})
	counts := make([]int, mach.P)
	left := len(xs)
	for i := 0; i < mach.P-1; i++ {
		share := len(xs) / mach.P * ((i * 3) % 4) / 2
		counts[i] = share
		left -= share
	}
	counts[mach.P-1] = left
	flags := make([]bool, len(xs))
	for i := range flags {
		flags[i] = i%7 == 0
	}
	b.Run("raggedscan", func(b *testing.B) {
		var vtime float64
		for i := 0; i < b.N; i++ {
			_, res := apps.RaggedSegmentedScan(mach, counts, flags, xs)
			vtime = res.Makespan
		}
		b.ReportMetric(vtime, "vtime")
	})
	const nv = 512
	edges := make([][2]int, len(xs))
	for i := range edges {
		edges[i] = [2]int{(i * 2654435761) % nv, (i*40503 + 7) % nv}
	}
	vcounts := make([]int, mach.P)
	vleft := nv
	for i := 0; i < mach.P-1; i++ {
		share := nv / mach.P * ((i * 3) % 4) / 2
		vcounts[i] = share
		vleft -= share
	}
	vcounts[mach.P-1] = vleft
	b.Run("degreehist", func(b *testing.B) {
		var vtime float64
		for i := 0; i < b.N; i++ {
			_, res := apps.DegreeHistogram(mach, nv, edges, vcounts, 8)
			vtime = res.Makespan
		}
		b.ReportMetric(vtime, "vtime")
	})
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
		w := flatOf(ops.Arity)
		for i := 0; i < b.N; i++ {
			ops.RepeatInto(6, w)
		}
	})
}
