// Package rules implements the optimization rules of §3 of the paper:
// semantic equalities that fuse a composition of two or three collective
// operations into a single collective operation (classes Reduction, Scan
// and Comcast) or into a purely local computation (class Local), trading
// communication start-ups for extra computation via auxiliary variables.
//
// A rule is one statement (statement.go): a window of program stages in
// the paper's notation, an algebraic condition checked against a property
// registry (distributivity for the *2 rules, commutativity for the
// single-operator rules, offset form for the halo combination, equal counts
// for the irregular ones), and the right-hand side. Its Head, Pattern and
// Cond are read off that statement, and every rule's Try is the one matcher.
// The Engine applies rules over a term, either exhaustively or guided by the
// cost calculus of package cost; the Verify functions check every rule's
// claimed semantic equality by evaluating both sides of a rewrite under
// the functional semantics.
package rules

import (
	"fmt"
	"sync"

	"repro/internal/algebra"
	"repro/internal/term"
)

// Env is the context a rule match consults: the algebraic-property
// registry, and optionally the machine size (the rules that need p = 2^k,
// Rule.NeedsPow2, compute f^(log p) by repeated squaring; with P unknown,
// they fire and the requirement is the caller's to uphold).
type Env struct {
	// Reg declares the algebraic properties of the base operators.
	Reg *algebra.Registry
	// P, when non-zero, is the machine size the rewritten program will
	// run on.
	P int
}

// DefaultEnv uses the default registry and an unknown machine size. The
// registry is built once and shared, so it is read-only: an engine that
// needs other properties replaces Env.Reg, never declares into it.
func DefaultEnv() Env { return Env{Reg: defaultReg} }

var defaultReg = algebra.Default()

// Rule is one optimization rule: a named pattern over a fixed-size window
// of stages together with its rewrite. Every rule of the package is a
// statement's (statement.go).
type Rule struct {
	// Name is the paper's rule name, e.g. "SR2-Reduction".
	Name string
	// Class is Reduction, Scan, Comcast or Local (§3.1).
	Class string
	// Window is the number of stages the left-hand side spans.
	Window int
	// Pattern, Cond and Result document the rule schematically in the
	// paper's box format: the left-hand side, the side condition, and
	// the right-hand side.
	Pattern, Cond, Result string
	// CostNeutral marks rules whose two sides have equal estimated cost
	// (the mobility/fusion extensions); the cost-guided engine applies
	// them when the estimate does not get worse, instead of requiring a
	// strict improvement.
	CostNeutral bool
	// Head, when non-nil, declares the kind of stage every window the rule
	// matches starts with, as a stage of that type whose fields are unused
	// (term.Scan{}, say): the engine tries the rule only at positions that
	// hold a stage of the same type. A rule without one is tried everywhere.
	Head term.Term
	// Try matches the window and, if the pattern and conditions hold,
	// returns the replacement stages. The rule does not write to the
	// replacement again: the engine shares it between every program it
	// rewrites.
	Try func(w []term.Term, env Env) ([]term.Term, bool)
	// pow2 is the statement's p = 2^k condition, which NeedsPow2 reports.
	pow2 bool
}

// NeedsPow2 reports whether the rule holds on power-of-two machines only:
// its right-hand side computes f^(log p) by repeated squaring.
func (r Rule) NeedsPow2() bool { return r.pow2 }

// The derived operators the right-hand sides name, memoized: a window seen
// before names the one built then, shared by every program and goroutine.
// Without the memo no timed row lost, but a plan-miss request allocated 6.1
// more, beyond the planner's allocation budget (docs/PERF.md "What each
// planner mechanism buys").
var (
	opSR2      = memoized(algebra.OpSR2)
	opSS       = memoized(func(a, _ *algebra.Op) *algebra.BalancedScanOp { return algebra.OpSS(a) })
	opBR       = memoized(func(a, _ *algebra.Op) *algebra.IterOp { return algebra.OpBR(a) })
	opBSR2     = memoized(algebra.OpBSR2)
	opBSR      = memoized(func(a, _ *algebra.Op) *algebra.IterOp { return algebra.OpBSR(a) })
	opSR       = memoized(func(a, _ *algebra.Op) *algebra.Op { return algebra.OpSR(a) })
	opCompBS   = memoized(func(a, _ *algebra.Op) *algebra.RepeatOps { return algebra.OpCompBS(a) })
	opCompBSS2 = memoized(algebra.OpCompBSS2)
	opCompBSS  = memoized(func(a, _ *algebra.Op) *algebra.RepeatOps { return algebra.OpCompBSS(a) })
)

// fused is the local function (f; g).
func fused(f, g *term.Fn) *term.Fn {
	return local(fmt.Sprintf("(%s; %s)", f.Name, g.Name), f.Cost+g.Cost, f.Elementwise && g.Elementwise,
		func(ar *algebra.Arena, v algebra.Value) algebra.Value { return term.Apply(ar, g, term.Apply(ar, f, v)) })
}

// memoized is build remembered by the identity of its two operators
// (derived ones are immutable), for the last 256 it built: base operators
// may be defined without end. It is safe for concurrent use.
func memoized[T any](build func(a, b *algebra.Op) T) func(a, b *algebra.Op) T {
	var mu sync.Mutex
	built := make(map[[2]*algebra.Op]T)
	return func(a, b *algebra.Op) T {
		k := [2]*algebra.Op{a, b}
		mu.Lock()
		defer mu.Unlock()
		if v, ok := built[k]; ok {
			return v
		}
		v := build(a, b)
		if len(built) == 256 {
			clear(built)
		}
		built[k] = v
		return v
	}
}

// SR2Reduction is rule SR2-Reduction and its allreduce variant.
var SR2Reduction = statement{name: "SR2-Reduction", class: "Reduction", cond: distributes,
	window: "scan(⊗) ; [all]reduce(⊕)", result: "map pair ; [all]reduce(op_sr2) ; map π₁",
	build: func(b binding) []term.Term {
		return []term.Term{term.Map{F: term.PairFn}, term.Reduce{Op: opSR2(b.ops[otimes], b.ops[oplus]), All: b.all}, term.Map{F: term.FirstFn}}
	},
}.rule()

// SRReduction is rule SR-Reduction. op_sr is not associative, so the
// right-hand side uses the balanced reduction of §3.2.
var SRReduction = statement{name: "SR-Reduction", class: "Reduction", cond: commutative,
	window: "scan(⊕) ; [all]reduce(⊕)", result: "map pair ; [all]reduce_balanced(op_sr) ; map π₁",
	build: func(b binding) []term.Term {
		return []term.Term{term.Map{F: term.PairFn}, term.Reduce{Op: opSR(b.ops[oplus], nil), All: b.all, Balanced: true}, term.Map{F: term.FirstFn}}
	},
}.rule()

// SS2Scan is rule SS2-Scan.
var SS2Scan = statement{name: "SS2-Scan", class: "Scan", cond: distributes,
	window: "scan(⊗) ; scan(⊕)", result: "map pair ; scan(op_sr2) ; map π₁",
	build: func(b binding) []term.Term {
		return []term.Term{term.Map{F: term.PairFn}, term.Scan{Op: opSR2(b.ops[otimes], b.ops[oplus])}, term.Map{F: term.FirstFn}}
	},
}.rule()

// SSScan is rule SS-Scan.
var SSScan = statement{name: "SS-Scan", class: "Scan", cond: commutative,
	window: "scan(⊕) ; scan(⊕)", result: "map quadruple ; scan_balanced(op_ss) ; map π₁",
	build: func(b binding) []term.Term {
		return []term.Term{term.Map{F: term.QuadrupleFn}, term.ScanBal{Op: opSS(b.ops[oplus], nil)}, term.Map{F: term.FirstFn}}
	},
}.rule()

// BSComcast is rule BS-Comcast, realized as the comcast collective with the
// (e,o) pair of §3.4.
var BSComcast = statement{name: "BS-Comcast", class: "Comcast", cond: associative,
	window: "bcast ; scan(⊕)", result: "bcast ; map# op_comp",
	build: func(b binding) []term.Term { return []term.Term{term.Comcast{Ops: opCompBS(b.ops[oplus], nil)}} },
}.rule()

// BSS2Comcast is rule BSS2-Comcast, the corollary of SS2-Scan and
// BS-Comcast.
var BSS2Comcast = statement{name: "BSS2-Comcast", class: "Comcast", cond: distributes,
	window: "bcast ; scan(⊗) ; scan(⊕)", result: "bcast ; map# op_comp",
	build: func(b binding) []term.Term {
		return []term.Term{term.Comcast{Ops: opCompBSS2(b.ops[otimes], b.ops[oplus])}}
	},
}.rule()

// BSSComcast is rule BSS-Comcast. It cannot be derived from SS-Scan plus
// BS-Comcast (op_ss is not associative), so it is a rule of its own.
var BSSComcast = statement{name: "BSS-Comcast", class: "Comcast", cond: commutative,
	window: "bcast ; scan(⊕) ; scan(⊕)", result: "bcast ; map# op_comp",
	build: func(b binding) []term.Term { return []term.Term{term.Comcast{Ops: opCompBSS(b.ops[oplus], nil)}} },
}.rule()

// BRLocal is rule BR-Local. Repeated squaring computes the p-fold reduction
// of the broadcast value, so the rule requires a power-of-two machine. The
// right-hand side no longer broadcasts: positions other than the first
// become undetermined (§3.5).
var BRLocal = statement{name: "BR-Local", class: "Local", cond: associative, pow2: true,
	window: "bcast ; reduce(⊕)", result: "iter(op_br)",
	build: func(b binding) []term.Term {
		return []term.Term{term.Iter{Op: opBR(b.ops[oplus], nil)}}
	},
}.rule()

// BSR2Local is rule BSR2-Local, the corollary of SR2-Reduction and
// BR-Local. The pair/π₁ adjustments are folded into the Iter stage.
var BSR2Local = statement{name: "BSR2-Local", class: "Local", cond: distributes, pow2: true,
	window: "bcast ; scan(⊗) ; reduce(⊕)", result: "map pair ; iter(op_bsr2) ; map π₁",
	build: func(b binding) []term.Term {
		return []term.Term{term.Iter{Op: opBSR2(b.ops[otimes], b.ops[oplus])}}
	},
}.rule()

// BSRLocal is rule BSR-Local. Like BSS-Comcast it cannot be derived as a
// corollary (the result of SR-Reduction is not associative).
var BSRLocal = statement{name: "BSR-Local", class: "Local", cond: commutative, pow2: true,
	window: "bcast ; scan(⊕) ; reduce(⊕)", result: "map pair ; iter(op_bsr) ; map π₁",
	build: func(b binding) []term.Term {
		return []term.Term{term.Iter{Op: opBSR(b.ops[oplus], nil)}}
	},
}.rule()

// CRAllLocal is rule CR-AllLocal, the allreduce variant of BR-Local: the
// locally computed reduction is re-broadcast, because allreduce's result
// is needed everywhere.
var CRAllLocal = statement{name: "CR-AllLocal", class: "Local", cond: associative, pow2: true,
	window: "bcast ; allreduce(⊕)", result: "iter(op_br) ; bcast",
	build: func(b binding) []term.Term {
		return []term.Term{term.Iter{Op: opBR(b.ops[oplus], nil)}, term.Bcast{}}
	},
}.rule()

// All returns every rule, ordered for the engine: wider windows first so
// the triple rules (BSS2, BSS, BSR2, BSR) win over their two-stage
// prefixes, then Local before Comcast before Reduction/Scan within equal
// windows (a local result beats any collective).
func All() []Rule {
	return []Rule{
		BSR2Local, BSRLocal, BSS2Comcast, BSSComcast,
		BRLocal, CRAllLocal, BSComcast,
		SR2Reduction, SRReduction, SS2Scan, SSScan,
	}
}

// The catalog an engine and ByName read on every step is built once; both
// values are read-only.
var (
	// defaultRules is what an Engine without Rules applies. The sparse
	// message-combining rules ride along: their patterns only match sparse
	// stages (halo, reduce_scatterv, allgatherv), so they are inert on dense
	// programs and cannot change any existing optimization.
	defaultRules = append(All(), Sparse()...)
	// byName indexes the paper rules and the extensions.
	byName = func() map[string]Rule {
		m := make(map[string]Rule)
		for _, r := range AllWithExtensions() {
			m[r.Name] = r
		}
		return m
	}()
)

// ByName returns the named rule, searching the paper rules and the
// extensions.
func ByName(name string) (Rule, bool) {
	r, ok := byName[name]
	return r, ok
}
