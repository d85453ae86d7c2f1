// Package rules implements the optimization rules of §3 of the paper:
// semantic equalities that fuse a composition of two or three collective
// operations into a single collective operation (classes Reduction, Scan
// and Comcast) or into a purely local computation (class Local), trading
// communication start-ups for extra computation via auxiliary variables.
//
// Each rule is a syntactic pattern over a window of program stages plus an
// algebraic condition checked against a property registry (distributivity
// for the *2 rules, commutativity for the single-operator rules). The
// Engine applies rules over a term, either exhaustively or guided by the
// cost calculus of package cost; the Verify functions check every rule's
// claimed semantic equality by evaluating both sides of a rewrite under
// the functional semantics.
package rules

import (
	"repro/internal/algebra"
	"repro/internal/term"
)

// Env is the context a rule match consults: the algebraic-property
// registry, and optionally the machine size (the Local rules compute
// f^(log p) by repeated squaring and therefore require a power-of-two
// machine; with P unknown, they fire and the requirement is the caller's
// to uphold).
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

func (e Env) pow2OK() bool {
	return e.P == 0 || e.P&(e.P-1) == 0
}

// Rule is one optimization rule: a named pattern over a fixed-size window
// of stages together with its rewrite.
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
	// returns the replacement stages, a flat list the rule does not write to
	// again: the engine shares it between every program it rewrites.
	Try func(w []term.Term, env Env) ([]term.Term, bool)
}

// assoc reports whether the registry declares op associative — the
// standing requirement on every collective's base operator.
func assoc(env Env, op *algebra.Op) bool { return env.Reg.Associative(op) }

// distributes checks the *2-rule condition: ⊗ distributes over ⊕, with
// both associative.
func distributes(env Env, otimes, oplus *algebra.Op) bool {
	return assoc(env, otimes) && assoc(env, oplus) && env.Reg.Distributes(otimes, oplus)
}

// commutative checks the single-operator condition: ⊕ associative and
// commutative.
func commutative(env Env, op *algebra.Op) bool {
	return assoc(env, op) && env.Reg.Commutative(op)
}

// matchScan extracts a scan stage.
func matchScan(t term.Term) (*algebra.Op, bool) {
	s, ok := t.(term.Scan)
	if !ok {
		return nil, false
	}
	return s.Op, true
}

// matchReduce extracts a reduce/allreduce stage (not a balanced one).
func matchReduce(t term.Term) (op *algebra.Op, all, ok bool) {
	r, k := t.(term.Reduce)
	if !k || r.Balanced {
		return nil, false, false
	}
	return r.Op, r.All, true
}

func isBcast(t term.Term) bool {
	_, ok := t.(term.Bcast)
	return ok
}

// SR2Reduction is rule SR2-Reduction (and its allreduce variant):
//
//	scan(⊗) ; [all]reduce(⊕)  →  map pair ; [all]reduce(op_sr2) ; map π₁
//	provided ⊗ distributes over ⊕.
var SR2Reduction = Rule{
	Name:    "SR2-Reduction",
	Class:   "Reduction",
	Window:  2,
	Pattern: "scan(⊗) ; [all]reduce(⊕)",
	Cond:    "⊗ distributes over ⊕",
	Result:  "map pair ; [all]reduce(op_sr2) ; map π₁",
	Head:    term.Scan{},
	Try: func(w []term.Term, env Env) ([]term.Term, bool) {
		otimes, ok := matchScan(w[0])
		if !ok {
			return nil, false
		}
		oplus, all, ok := matchReduce(w[1])
		if !ok || !distributes(env, otimes, oplus) {
			return nil, false
		}
		return []term.Term{
			term.Map{F: term.PairFn},
			term.Reduce{Op: algebra.OpSR2(otimes, oplus), All: all},
			term.Map{F: term.FirstFn},
		}, true
	},
}

// SRReduction is rule SR-Reduction:
//
//	scan(⊕) ; [all]reduce(⊕)  →  map pair ; [all]reduce_balanced(op_sr) ; map π₁
//	provided ⊕ is commutative.
//
// op_sr is not associative, so the right-hand side uses the balanced
// reduction of §3.2.
var SRReduction = Rule{
	Name:    "SR-Reduction",
	Class:   "Reduction",
	Window:  2,
	Pattern: "scan(⊕) ; [all]reduce(⊕)",
	Cond:    "⊕ is commutative",
	Result:  "map pair ; [all]reduce_balanced(op_sr) ; map π₁",
	Head:    term.Scan{},
	Try: func(w []term.Term, env Env) ([]term.Term, bool) {
		op1, ok := matchScan(w[0])
		if !ok {
			return nil, false
		}
		op2, all, ok := matchReduce(w[1])
		if !ok || op1 != op2 || !commutative(env, op1) {
			return nil, false
		}
		return []term.Term{
			term.Map{F: term.PairFn},
			term.Reduce{Op: algebra.OpSR(op1), All: all, Balanced: true},
			term.Map{F: term.FirstFn},
		}, true
	},
}

// SS2Scan is rule SS2-Scan:
//
//	scan(⊗) ; scan(⊕)  →  map pair ; scan(op_sr2) ; map π₁
//	provided ⊗ distributes over ⊕.
var SS2Scan = Rule{
	Name:    "SS2-Scan",
	Class:   "Scan",
	Window:  2,
	Pattern: "scan(⊗) ; scan(⊕)",
	Cond:    "⊗ distributes over ⊕",
	Result:  "map pair ; scan(op_sr2) ; map π₁",
	Head:    term.Scan{},
	Try: func(w []term.Term, env Env) ([]term.Term, bool) {
		otimes, ok := matchScan(w[0])
		if !ok {
			return nil, false
		}
		oplus, ok := matchScan(w[1])
		if !ok || !distributes(env, otimes, oplus) {
			return nil, false
		}
		return []term.Term{
			term.Map{F: term.PairFn},
			term.Scan{Op: algebra.OpSR2(otimes, oplus)},
			term.Map{F: term.FirstFn},
		}, true
	},
}

// SSScan is rule SS-Scan:
//
//	scan(⊕) ; scan(⊕)  →  map quadruple ; scan_balanced(op_ss) ; map π₁
//	provided ⊕ is commutative.
var SSScan = Rule{
	Name:    "SS-Scan",
	Class:   "Scan",
	Window:  2,
	Pattern: "scan(⊕) ; scan(⊕)",
	Cond:    "⊕ is commutative",
	Result:  "map quadruple ; scan_balanced(op_ss) ; map π₁",
	Head:    term.Scan{},
	Try: func(w []term.Term, env Env) ([]term.Term, bool) {
		op1, ok := matchScan(w[0])
		if !ok {
			return nil, false
		}
		op2, ok := matchScan(w[1])
		if !ok || op1 != op2 || !commutative(env, op1) {
			return nil, false
		}
		return []term.Term{
			term.Map{F: term.QuadrupleFn},
			term.ScanBal{Op: algebra.OpSS(op1)},
			term.Map{F: term.FirstFn},
		}, true
	},
}

// BSComcast is rule BS-Comcast:
//
//	bcast ; scan(⊕)  →  bcast ; map# op_comp
//
// realized as the comcast collective with the (e,o) pair of §3.4.
var BSComcast = Rule{
	Name:    "BS-Comcast",
	Class:   "Comcast",
	Window:  2,
	Pattern: "bcast ; scan(⊕)",
	Cond:    "⊕ is associative",
	Result:  "bcast ; map# op_comp",
	Head:    term.Bcast{},
	Try: func(w []term.Term, env Env) ([]term.Term, bool) {
		if !isBcast(w[0]) {
			return nil, false
		}
		op, ok := matchScan(w[1])
		if !ok || !assoc(env, op) {
			return nil, false
		}
		return []term.Term{
			term.Comcast{Ops: algebra.OpCompBS(op)},
		}, true
	},
}

// BSS2Comcast is rule BSS2-Comcast, the corollary of SS2-Scan and
// BS-Comcast:
//
//	bcast ; scan(⊗) ; scan(⊕)  →  bcast ; map# op_comp
//	provided ⊗ distributes over ⊕.
var BSS2Comcast = Rule{
	Name:    "BSS2-Comcast",
	Class:   "Comcast",
	Window:  3,
	Pattern: "bcast ; scan(⊗) ; scan(⊕)",
	Cond:    "⊗ distributes over ⊕",
	Result:  "bcast ; map# op_comp",
	Head:    term.Bcast{},
	Try: func(w []term.Term, env Env) ([]term.Term, bool) {
		if !isBcast(w[0]) {
			return nil, false
		}
		otimes, ok := matchScan(w[1])
		if !ok {
			return nil, false
		}
		oplus, ok := matchScan(w[2])
		if !ok || !distributes(env, otimes, oplus) {
			return nil, false
		}
		return []term.Term{
			term.Comcast{Ops: algebra.OpCompBSS2(otimes, oplus)},
		}, true
	},
}

// BSSComcast is rule BSS-Comcast. It cannot be derived from SS-Scan plus
// BS-Comcast (op_ss is not associative), so it is a rule of its own:
//
//	bcast ; scan(⊕) ; scan(⊕)  →  bcast ; map# op_comp
//	provided ⊕ is commutative.
var BSSComcast = Rule{
	Name:    "BSS-Comcast",
	Class:   "Comcast",
	Window:  3,
	Pattern: "bcast ; scan(⊕) ; scan(⊕)",
	Cond:    "⊕ is commutative",
	Result:  "bcast ; map# op_comp",
	Head:    term.Bcast{},
	Try: func(w []term.Term, env Env) ([]term.Term, bool) {
		if !isBcast(w[0]) {
			return nil, false
		}
		op1, ok := matchScan(w[1])
		if !ok {
			return nil, false
		}
		op2, ok := matchScan(w[2])
		if !ok || op1 != op2 || !commutative(env, op1) {
			return nil, false
		}
		return []term.Term{
			term.Comcast{Ops: algebra.OpCompBSS(op1)},
		}, true
	},
}

// BRLocal is rule BR-Local:
//
//	bcast ; reduce(⊕)  →  iter(op_br)
//
// Repeated squaring computes the p-fold reduction of the broadcast value,
// so the rule requires a power-of-two machine. Note the right-hand side
// no longer broadcasts: positions other than the first become
// undetermined (§3.5).
var BRLocal = Rule{
	Name:    "BR-Local",
	Class:   "Local",
	Window:  2,
	Pattern: "bcast ; reduce(⊕)",
	Cond:    "⊕ is associative; p = 2^k",
	Result:  "iter(op_br)",
	Head:    term.Bcast{},
	Try: func(w []term.Term, env Env) ([]term.Term, bool) {
		if !isBcast(w[0]) || !env.pow2OK() {
			return nil, false
		}
		op, all, ok := matchReduce(w[1])
		if !ok || all || !assoc(env, op) {
			return nil, false
		}
		return []term.Term{term.Iter{Op: algebra.OpBR(op)}}, true
	},
}

// BSR2Local is rule BSR2-Local, the corollary of SR2-Reduction and
// BR-Local:
//
//	bcast ; scan(⊗) ; reduce(⊕)  →  map pair ; iter(op_bsr2) ; map π₁
//	provided ⊗ distributes over ⊕ (power-of-two machine).
//
// The pair/π₁ adjustments are folded into the Iter stage.
var BSR2Local = Rule{
	Name:    "BSR2-Local",
	Class:   "Local",
	Window:  3,
	Pattern: "bcast ; scan(⊗) ; reduce(⊕)",
	Cond:    "⊗ distributes over ⊕; p = 2^k",
	Result:  "map pair ; iter(op_bsr2) ; map π₁",
	Head:    term.Bcast{},
	Try: func(w []term.Term, env Env) ([]term.Term, bool) {
		if !isBcast(w[0]) || !env.pow2OK() {
			return nil, false
		}
		otimes, ok := matchScan(w[1])
		if !ok {
			return nil, false
		}
		oplus, all, ok := matchReduce(w[2])
		if !ok || all || !distributes(env, otimes, oplus) {
			return nil, false
		}
		return []term.Term{term.Iter{Op: algebra.OpBSR2(otimes, oplus)}}, true
	},
}

// BSRLocal is rule BSR-Local. Like BSS-Comcast it cannot be derived as a
// corollary (the result of SR-Reduction is not associative):
//
//	bcast ; scan(⊕) ; reduce(⊕)  →  map pair ; iter(op_bsr) ; map π₁
//	provided ⊕ is commutative (power-of-two machine).
var BSRLocal = Rule{
	Name:    "BSR-Local",
	Class:   "Local",
	Window:  3,
	Pattern: "bcast ; scan(⊕) ; reduce(⊕)",
	Cond:    "⊕ is commutative; p = 2^k",
	Result:  "map pair ; iter(op_bsr) ; map π₁",
	Head:    term.Bcast{},
	Try: func(w []term.Term, env Env) ([]term.Term, bool) {
		if !isBcast(w[0]) || !env.pow2OK() {
			return nil, false
		}
		op1, ok := matchScan(w[1])
		if !ok {
			return nil, false
		}
		op2, all, ok := matchReduce(w[2])
		if !ok || all || op1 != op2 || !commutative(env, op1) {
			return nil, false
		}
		return []term.Term{term.Iter{Op: algebra.OpBSR(op1)}}, true
	},
}

// CRAllLocal is rule CR-AllLocal, the allreduce variant of BR-Local: the
// locally computed reduction is re-broadcast, because allreduce's result
// is needed everywhere:
//
//	bcast ; allreduce(⊕)  →  iter(op_br) ; bcast
var CRAllLocal = Rule{
	Name:    "CR-AllLocal",
	Class:   "Local",
	Window:  2,
	Pattern: "bcast ; allreduce(⊕)",
	Cond:    "⊕ is associative; p = 2^k",
	Result:  "iter(op_br) ; bcast",
	Head:    term.Bcast{},
	Try: func(w []term.Term, env Env) ([]term.Term, bool) {
		if !isBcast(w[0]) || !env.pow2OK() {
			return nil, false
		}
		op, all, ok := matchReduce(w[1])
		if !ok || !all || !assoc(env, op) {
			return nil, false
		}
		return []term.Term{term.Iter{Op: algebra.OpBR(op)}, term.Bcast{}}, true
	},
}

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
