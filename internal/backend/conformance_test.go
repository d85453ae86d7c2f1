// Conformance harness: every collective of package coll and every
// optimization rule of package rules must produce identical results on the
// virtual-time machine and on the native goroutine backend (the rules
// through the conformance oracle, chaos.Check). Both backends
// execute the same algorithms in the same combining order, so the
// comparison is exact equality, not approximate — any divergence is a
// backend bug, not floating-point noise.
package backend_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/chaos"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exper"
	"repro/internal/lang"
	"repro/internal/machine"
	"repro/internal/mpbackend"
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
// side of all eleven optimization rules through the conformance oracle's
// fault-free legs (chaos.Check): each side's results agree bit for bit
// across the virtual machine and both native transports, and hold the
// functional semantics wherever it determines a value — the paper's
// semantic equality, established on real goroutines too. The fault-free
// legs are cheap, so beside the chaos sweeps' sizes (RulePattern.Sizes)
// it adds p = 3 and 8 wherever a rule runs at non-powers of two.
func TestRulesConform(t *testing.T) {
	for _, pat := range exper.Patterns() {
		lhs := term.Compose(pat.LHS.Term())
		sizes := pat.Sizes()
		if !slices.Contains(sizes, 8) {
			sizes = append(sizes, 3, 8)
		}
		for _, p := range sizes {
			rhs, err := exper.ApplyRule(pat.Rule, lhs, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/p=%d/m=%d", pat.Rule, p, m), func(t *testing.T) {
					for _, side := range []term.Term{lhs, rhs} {
						if err := chaos.Check(chaos.Case{Prog: term.Compose(side), P: p, M: m}); err != nil {
							t.Fatalf("%s: %v", side, err)
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
//
// The sparse collectives' edge shapes take part — halo offsets that repeat,
// vanish mod p or exceed it, source lists with self-edges and repeats, and
// V-collectives with every block but one empty or an empty own block — and
// move one message per distinct directed pair and non-empty block.
func TestNativeCountersMatchVirtual(t *testing.T) {
	type run struct {
		p, msgs int // msgs < 0: not pinned
		prog    core.Program
	}
	var runs []run
	for _, p := range []int{2, 5, 8} {
		runs = append(runs, run{p, -1, core.NewProgram().Bcast().Scan(algebra.Add).AllReduce(algebra.Add)})
	}
	for _, c := range []struct {
		src     string
		p, msgs int
	}{
		{"halo(0,-1,-1,1,1,0)", 1, 0}, {"halo(0,-1,-1,1,1,0)", 8, 8 * 2}, {"halo(2,-3,5,-8,12)", 5, 5 * 1},
		{"halo(-9,4,0,17,-1)", 8, 8 * 3}, {"allgatherv(0,0,4,0)", 4, 3}, {"reduce_scatterv(max,0,0,4,0)", 4, 3},
		{"reduce_scatterv(+,0,2,1) ; allgatherv(0,2,1)", 3, 4 + 4},
	} {
		prog, err := lang.Parse(c.src, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{c.p, c.msgs, core.FromTerm(prog)})
	}
	lists := [][]int{{1, 0, 1, 3, 0}, {2, 1, 2, 0, 0}, {3, 2, 3, 1, 0}, {0, 3, 0, 2, 0}}
	runs = append(runs, run{4, 2 + 2 + 3 + 2, core.FromTerm(term.Halo{H: &term.Hood{Lists: lists}})})
	for _, c := range runs {
		in := mpbackend.ConformanceInputs(term.Compose(c.prog.Term()), c.p, 8)
		_, vres := c.prog.Run(core.Machine{Ts: 100, Tw: 1, P: c.p}, in)
		_, nres := c.prog.RunNative(c.p, in)
		if vres.Messages != nres.Messages || vres.Words != nres.Words {
			t.Fatalf("%s at p=%d: virtual %d msgs/%d words, native %d msgs/%d words",
				c.prog, c.p, vres.Messages, vres.Words, nres.Messages, nres.Words)
		}
		if vres.Ops != nres.Ops {
			t.Fatalf("%s at p=%d: virtual charged %g ops, native %g", c.prog, c.p, vres.Ops, nres.Ops)
		}
		if c.msgs >= 0 && vres.Messages != c.msgs {
			t.Fatalf("%s at p=%d: %d messages, want %d", c.prog, c.p, vres.Messages, c.msgs)
		}
	}
}
