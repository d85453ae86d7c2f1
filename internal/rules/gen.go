package rules

import (
	"math/rand"

	"repro/internal/algebra"
	"repro/internal/term"
)

// Random-program generator over the rule grammar, shared by the fuzzers
// of this package and package core and by the chaos conformance harness
// (package chaos) and its collchaos command.

// IncFn is the generator's generic local stage: elementwise +1. It is not
// one of the parser's built-in functions; consumers that parse reproducer
// strings must register it with Symbols.DefineFn.
var IncFn = local("inc", 1, true, inc)

// inc is inc's body: a block's result is written into a block of ar's.
func inc(ar *algebra.Arena, v algebra.Value) algebra.Value {
	var dst algebra.Value
	if x, ok := v.(algebra.Vec); ok && len(x) > 0 {
		dst = ar.Vec(len(x))
	}
	return algebra.Add.ApplyInto(dst, v, algebra.Scalar(1))
}

// local is the local function whose Into is into and whose F is into on a
// nil arena, which allocates what it draws: each body is written once.
func local(name string, cost int, elementwise bool, into func(*algebra.Arena, algebra.Value) algebra.Value) *term.Fn {
	return &term.Fn{Name: name, Cost: cost, Elementwise: elementwise, Into: into,
		F: func(v algebra.Value) algebra.Value { return into((*algebra.Arena)(nil), v) },
	}
}

// genOps are the operators the generator draws from: everything the
// default registry knows properties for, including the non-commutative
// left so the commutativity side conditions get exercised.
var genOps = []*algebra.Op{algebra.Add, algebra.Mul, algebra.Max, algebra.Min, algebra.Left}

// RandProgram builds a random composition of local and collective stages
// over operators whose algebraic properties the default registry knows,
// so every rule has a chance to fire somewhere. Gather is always followed
// by scatter (so downstream stages see per-processor values again), and
// pair by its projection. Every stage is expressible in the surface
// syntax, so a failing program can be reported — and re-run — as a
// parseable string.
func RandProgram(rng *rand.Rand, maxStages int) term.Seq {
	n := 1 + rng.Intn(maxStages)
	prog := make(term.Seq, 0, n+1)
	for i := 0; i < n; i++ {
		op := genOps[rng.Intn(len(genOps))]
		switch rng.Intn(7) {
		case 0:
			prog = append(prog, term.Bcast{})
		case 1:
			prog = append(prog, term.Scan{Op: op})
		case 2:
			prog = append(prog, term.Reduce{Op: op})
		case 3:
			prog = append(prog, term.Reduce{Op: op, All: true})
		case 4:
			prog = append(prog, term.Map{F: IncFn})
		case 5:
			prog = append(prog, term.Map{F: term.PairFn}, term.Map{F: term.FirstFn})
		case 6:
			prog = append(prog, term.Gather{}, term.Scatter{})
		}
	}
	return prog
}
