// Conformance harness: every collective of package coll and every
// optimization rule of package rules must produce identical results on the
// virtual-time machine and on the native goroutine backend. Both backends
// execute the same algorithms in the same combining order, so the
// comparison is exact equality, not approximate — any divergence is a
// backend bug, not floating-point noise.
package backend_test

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exper"
	"repro/internal/machine"
	"repro/internal/mpbackend"
	"repro/internal/rules"
	"repro/internal/term"
)

// groupSizes covers the degenerate group, powers of two (the butterfly
// paths) and non-powers of two (the fold/unfold and balanced-tree paths).
var groupSizes = []int{1, 2, 3, 4, 5, 7, 8, 12, 16}

// blocks are the conformance harness's deterministic m-word blocks, one
// per rank.
func blocks(p, m int) []algebra.Value { return mpbackend.ConformanceInputs(nil, p, m) }

// onBoth runs the same SPMD body once on each backend with identical
// per-rank inputs and returns the two output lists.
func onBoth(p int, in []algebra.Value, body func(c coll.Comm, x algebra.Value) algebra.Value) (virtual, native []algebra.Value) {
	virtual = make([]algebra.Value, p)
	vm := machine.New(p, machine.Params{Ts: 100, Tw: 1})
	vm.Run(func(pr *machine.Proc) {
		c := coll.Comm(pr)
		virtual[c.Rank()] = body(c, in[c.Rank()])
	})
	native = make([]algebra.Value, p)
	nm := backend.New(p)
	nm.Run(func(c *backend.Proc) {
		native[c.Rank()] = body(c, in[c.Rank()])
	})
	return virtual, native
}

// wrap lifts a []Value result (gather and friends) into a single
// comparable Value: nil becomes Undef, a slice becomes a Tuple.
func wrap(vs []algebra.Value) algebra.Value {
	if vs == nil {
		return algebra.Undef{}
	}
	return algebra.Tuple(vs)
}

// collectiveCases enumerates every collective operation of package coll,
// each as a body mapping the rank's input block to a comparable output.
func collectiveCases(p int) map[string]func(c coll.Comm, x algebra.Value) algebra.Value {
	root := (p - 1) / 2 // a non-trivial root exercises the rank rotation
	cases := map[string]func(c coll.Comm, x algebra.Value) algebra.Value{
		"bcast": func(c coll.Comm, x algebra.Value) algebra.Value {
			return coll.Bcast(c, 0, x)
		},
		"bcast/rotated-root": func(c coll.Comm, x algebra.Value) algebra.Value {
			return coll.Bcast(c, root, x)
		},
		"reduce": func(c coll.Comm, x algebra.Value) algebra.Value {
			return coll.Reduce(c, 0, algebra.Add, x)
		},
		"reduce/rotated-root": func(c coll.Comm, x algebra.Value) algebra.Value {
			return coll.Reduce(c, root, algebra.Mul, x)
		},
		"allreduce": func(c coll.Comm, x algebra.Value) algebra.Value {
			return coll.AllReduce(c, algebra.Add, x)
		},
		"scan": func(c coll.Comm, x algebra.Value) algebra.Value {
			return coll.Scan(c, algebra.Add, x)
		},
		"reduce_balanced": func(c coll.Comm, x algebra.Value) algebra.Value {
			return coll.ReduceBalanced(c, algebra.OpSR(algebra.Add), algebra.Pair(x))
		},
		"allreduce_balanced": func(c coll.Comm, x algebra.Value) algebra.Value {
			return coll.AllReduceBalanced(c, algebra.OpSR(algebra.Add), algebra.Pair(x))
		},
		"scan_balanced": func(c coll.Comm, x algebra.Value) algebra.Value {
			return coll.ScanBalanced(c, algebra.OpSS(algebra.Add), algebra.Quadruple(x))
		},
		"comcast": func(c coll.Comm, x algebra.Value) algebra.Value {
			return coll.Comcast(c, 0, algebra.OpCompBS(algebra.Add), x)
		},
		"bcast_repeat": func(c coll.Comm, x algebra.Value) algebra.Value {
			return coll.BcastRepeat(c, 0, algebra.OpCompBS(algebra.Add), x)
		},
		"gather": func(c coll.Comm, x algebra.Value) algebra.Value {
			return wrap(coll.Gather(c, root, x))
		},
		"allgather": func(c coll.Comm, x algebra.Value) algebra.Value {
			return wrap(coll.AllGather(c, x))
		},
		"scatter": func(c coll.Comm, x algebra.Value) algebra.Value {
			var parts []algebra.Value
			if c.Rank() == 0 {
				parts = make([]algebra.Value, c.Size())
				for i := range parts {
					parts[i] = algebra.Scalar(i*10 + 1)
				}
			}
			return coll.Scatter(c, 0, parts)
		},
		"alltoall": func(c coll.Comm, x algebra.Value) algebra.Value {
			parts := make([]algebra.Value, c.Size())
			for i := range parts {
				parts[i] = algebra.Scalar(c.Rank()*100 + i)
			}
			return wrap(coll.AllToAll(c, parts))
		},
		"iter": func(c coll.Comm, x algebra.Value) algebra.Value {
			return coll.Iter(c, algebra.OpBR(algebra.Add), x)
		},
	}
	if p > 1 {
		// The ring algorithms need at least one vector element per member;
		// the m=16 blocks below satisfy that up to p=16.
		cases["allreduce_ring"] = func(c coll.Comm, x algebra.Value) algebra.Value {
			return coll.ReduceBy(c, algebra.Add, x, true, cost.AlgoRing, 0)
		}
		cases["reduce_scatter"] = func(c coll.Comm, x algebra.Value) algebra.Value {
			return coll.ReduceScatter(c, algebra.Add, x)
		}
		cases["allreduce_rabenseifner"] = func(c coll.Comm, x algebra.Value) algebra.Value {
			return coll.ReduceBy(c, algebra.Add, x, true, cost.AlgoRabenseifner, 0)
		}
		cases["reduce_pipelined"] = func(c coll.Comm, x algebra.Value) algebra.Value {
			return coll.ReduceBy(c, algebra.Add, x, false, cost.AlgoPipeline, 3)
		}
		if 2*p <= 16 {
			// ring-bi needs two vector elements per member.
			cases["allreduce_ring_bi"] = func(c coll.Comm, x algebra.Value) algebra.Value {
				return coll.ReduceBy(c, algebra.Add, x, true, cost.AlgoRingBi, 0)
			}
		}
	}
	return cases
}

// TestCollectivesConform runs every collective on both backends across
// power-of-two and non-power-of-two group sizes and asserts identical
// per-rank results.
func TestCollectivesConform(t *testing.T) {
	for _, p := range groupSizes {
		in := blocks(p, 16)
		for name, body := range collectiveCases(p) {
			t.Run(fmt.Sprintf("p=%d/%s", p, name), func(t *testing.T) {
				virtual, native := onBoth(p, in, body)
				for r := range virtual {
					if !algebra.Equal(virtual[r], native[r]) {
						t.Fatalf("rank %d: virtual %v, native %v", r, virtual[r], native[r])
					}
				}
			})
		}
	}
}

// TestRulesConform runs the left-hand side and the rewritten right-hand
// side of all eleven optimization rules on both backends and asserts that
// (a) each side's results agree exactly across backends and (b) both
// sides, executed natively, agree with the functional semantics modulo
// undetermined positions — the paper's semantic equality, now established
// on real goroutines too. (Non-root reduce positions are don't-cares in
// the semantics, so the two machine executions are compared through it
// rather than against each other.) The Local rules require a power-of-two
// machine, so non-powers of two are exercised only for the other classes.
func TestRulesConform(t *testing.T) {
	for _, pat := range exper.Patterns() {
		r, ok := rules.ByName(pat.Rule)
		if !ok {
			t.Fatalf("no rule named %s", pat.Rule)
		}
		sizes := []int{4, 8}
		if r.Class != "Local" {
			sizes = append(sizes, 3, 6)
		}
		for _, p := range sizes {
			eng := rules.NewEngine()
			eng.Rules = []rules.Rule{r}
			eng.Env.P = p
			opt, apps := eng.Optimize(pat.LHS.Term())
			if len(apps) != 1 {
				t.Fatalf("rule %s did not apply at p=%d", pat.Rule, p)
			}
			rhs := core.FromTerm(opt)
			for _, m := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/p=%d/m=%d", pat.Rule, p, m), func(t *testing.T) {
					in := blocks(p, m)
					mach := core.Machine{Ts: 100, Tw: 1, P: p, M: m}
					lhsV, _ := pat.LHS.Run(mach, in)
					lhsN, _ := pat.LHS.RunNative(p, in)
					rhsV, _ := rhs.Run(mach, in)
					rhsN, _ := rhs.RunNative(p, in)
					want := term.Eval(pat.LHS.Term(), in)
					for rank := 0; rank < p; rank++ {
						if !algebra.Equal(lhsV[rank], lhsN[rank]) {
							t.Fatalf("LHS rank %d: virtual %v, native %v", rank, lhsV[rank], lhsN[rank])
						}
						if !algebra.Equal(rhsV[rank], rhsN[rank]) {
							t.Fatalf("RHS rank %d: virtual %v, native %v", rank, rhsV[rank], rhsN[rank])
						}
						if !algebra.EqualModuloUndef(lhsN[rank], want[rank]) {
							t.Fatalf("native LHS disagrees with semantics at rank %d: got %v, want %v",
								rank, lhsN[rank], want[rank])
						}
						if !algebra.EqualModuloUndef(rhsN[rank], want[rank]) {
							t.Fatalf("rule %s not semantics-preserving natively at rank %d: got %v, want %v",
								pat.Rule, rank, rhsN[rank], want[rank])
						}
					}
				})
			}
		}
	}
}

// TestNativeCountersMatchVirtual cross-checks the two backends' volume
// accounting: an identical program must move the same number of messages
// and words on either machine (time differs, traffic must not).
func TestNativeCountersMatchVirtual(t *testing.T) {
	for _, p := range []int{2, 5, 8} {
		in := blocks(p, 8)
		prog := core.NewProgram().Bcast().Scan(algebra.Add).AllReduce(algebra.Add)
		_, vres := prog.Run(core.Machine{Ts: 100, Tw: 1, P: p}, in)
		_, nres := prog.RunNative(p, in)
		if vres.Messages != nres.Messages || vres.Words != nres.Words {
			t.Fatalf("p=%d: virtual %d msgs/%d words, native %d msgs/%d words",
				p, vres.Messages, vres.Words, nres.Messages, nres.Words)
		}
		if vres.Ops != nres.Ops {
			t.Fatalf("p=%d: virtual charged %g ops, native %g", p, vres.Ops, nres.Ops)
		}
	}
}
