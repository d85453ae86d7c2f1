package rules

import (
	"slices"
	"strings"

	"repro/internal/algebra"
	"repro/internal/term"
)

// A statement is a rule as §3 states it: a window of stages written as the
// paper writes it, a side condition on what the window names, and the
// right-hand side. The rule's Window, Head, Pattern, Cond and Try are
// all read off it.
type statement struct {
	name, class string
	// window is the left-hand side: stages separated by " ; ", each bcast,
	// gather, scatter, map f, scan, reduce, allreduce or [all]reduce of an
	// operator, halo of a neighbourhood, reduce_scatterv(⊕,c) of an operator
	// and a counts vector, or allgatherv(c), which must carry the counts its
	// reduce_scatterv bound. ⊗ and ⊕ name operators, f and g functions, O1,
	// O2 and H neighbourhoods; a name used twice must be bound to the same
	// one both times.
	window string
	cond   condition
	// pow2 restricts the rule to power-of-two machines (Rule.NeedsPow2).
	pow2 bool
	// neutral is the rule's CostNeutral.
	neutral bool
	// result is the right-hand side as Result prints it; build builds it
	// for what the window bound.
	result string
	build  func(b binding) []term.Term
	// stages[:n] is window as rule reads it, for the matcher.
	stages [3]stage
	n      int
}

// condition is a statement's side condition. Each one also asks that the
// operators it names be associative.
type condition uint8

const (
	always condition = iota
	associative
	commutative
	distributes
	isomorphic
	elementwise
)

var condText = [...]string{"—", "⊕ is associative", "⊕ is commutative", "⊗ distributes over ⊕",
	"both neighborhoods isomorphic", "counts equal; ⊕ associative and elementwise; p = len(c)"}

// holds reports whether env declares the condition of what b bound.
func (c condition) holds(env Env, b *binding) bool {
	reg, x, y := env.Reg, b.ops[otimes], b.ops[oplus]
	switch c {
	case associative:
		return reg.Associative(y)
	case commutative:
		return reg.Associative(y) && reg.Commutative(y)
	case distributes:
		return reg.Associative(x) && reg.Associative(y) && reg.Distributes(x, y)
	case isomorphic:
		return b.hoods[0].Isomorphic() && b.hoods[1].Isomorphic()
	case elementwise:
		return reg.Associative(y) && reg.Elementwise(y) && (env.P == 0 || env.P == len(b.counts))
	}
	return true
}

// binding is what a window bound: ⊗ and ⊕, f and g, and two neighbourhoods
// (in the slots the names select), the counts vector, and whether its
// reduction is an allreduce.
type binding struct {
	ops    [2]*algebra.Op
	fns    [2]*term.Fn
	hoods  [2]*term.Hood
	counts []int
	all    bool
}

// Each name binds a slot: ⊗, f, O1 and H slot 0, ⊕, g and O2 slot 1. A
// stage binds its first name; c names the counts vector, a field of its own.
const (
	otimes = 0
	oplus  = 1
)

var slots = map[string]uint8{"⊗": otimes, "⊕": oplus, "f": 0, "g": 1, "O1": 0, "O2": 1, "H": 0, "c": 0}

// stage is one position of a window: what it matches, the slot of the name
// it binds, and whether it is that name's first use, which binds it.
type stage struct {
	kind  stageKind
	slot  uint8
	binds bool
}

type stageKind uint8

const (
	kindBcast stageKind = iota
	kindGather
	kindScatter
	kindScan
	kindReduce
	kindAllReduce
	kindAnyReduce
	kindMap
	kindHalo
	kindReduceScatterV
	kindAllGatherV
)

// kindNames are the kinds as a window writes them; kindHeads are the stages
// a window of each kind starts with, as Rule.Head declares them.
var (
	kindNames = [...]string{"bcast", "gather", "scatter", "scan", "reduce", "allreduce", "[all]reduce", "map",
		"halo", "reduce_scatterv", "allgatherv"}
	kindHeads = [...]term.Term{term.Bcast{}, term.Gather{}, term.Scatter{}, term.Scan{}, term.Reduce{}, term.Reduce{}, term.Reduce{}, term.Map{},
		term.Halo{}, term.ReduceScatterV{}, term.AllGatherV{}}
)

// rule reads the statement's window and returns it as a Rule.
func (s statement) rule() Rule {
	bound := map[string]bool{}
	for _, tok := range strings.Split(s.window, " ; ") {
		f := strings.FieldsFunc(tok, func(r rune) bool { return strings.ContainsRune("(), ", r) })
		k, name := slices.Index(kindNames[:], f[0]), f[min(1, len(f)-1)]
		slot, named := slots[name]
		if k < 0 || len(f) > 1 && !named {
			panic("rules: " + s.name + ": unknown stage " + tok)
		}
		s.stages[s.n] = stage{kind: stageKind(k), slot: slot, binds: named && !bound[name]}
		bound[name], s.n = named, s.n+1
	}
	cond := condText[s.cond]
	if s.pow2 {
		cond += "; p = 2^k"
	}
	return Rule{Name: s.name, Class: s.class, Window: s.n, Pattern: s.window, Cond: cond,
		Result: s.result, CostNeutral: s.neutral, Head: kindHeads[s.stages[0].kind], Try: s.try, pow2: s.pow2}
}

// try is the statement's Rule.Try: every stage of w matches its position
// and binds its name, the condition holds of what they bound, and build
// builds the right-hand side.
func (s *statement) try(w []term.Term, env Env) ([]term.Term, bool) {
	if s.pow2 && env.P&(env.P-1) != 0 {
		return nil, false
	}
	var b binding
	for i, st := range s.stages[:s.n] {
		if !b.bind(st, w[i]) {
			return nil, false
		}
	}
	if !s.cond.holds(env, &b) {
		return nil, false
	}
	return s.build(b), true
}

// bind reports whether t is a stage of st's kind, and binds st's name to
// its operator, function or neighbourhood, and a reduce_scatterv's counts.
func (b *binding) bind(st stage, t term.Term) bool {
	switch st.kind {
	case kindBcast:
		_, ok := t.(term.Bcast)
		return ok
	case kindGather:
		_, ok := t.(term.Gather)
		return ok
	case kindScatter:
		_, ok := t.(term.Scatter)
		return ok
	case kindScan:
		x, ok := t.(term.Scan)
		return ok && bindTo(&b.ops[st.slot], st.binds, x.Op)
	case kindMap:
		x, ok := t.(term.Map)
		return ok && bindTo(&b.fns[st.slot], st.binds, x.F)
	case kindReduce, kindAllReduce, kindAnyReduce:
		x, ok := t.(term.Reduce)
		b.all = b.all || x.All
		form := st.kind == kindAnyReduce || x.All == (st.kind == kindAllReduce)
		return ok && form && !x.Balanced && bindTo(&b.ops[st.slot], st.binds, x.Op)
	case kindHalo:
		x, ok := t.(term.Halo)
		return ok && bindTo(&b.hoods[st.slot], st.binds, x.H)
	case kindReduceScatterV:
		x, ok := t.(term.ReduceScatterV)
		b.counts = x.Counts
		return ok && bindTo(&b.ops[st.slot], st.binds, x.Op)
	}
	x, ok := t.(term.AllGatherV)
	return ok && slices.Equal(b.counts, x.Counts)
}

// bindTo sets *slot to v on a name's first use and reports whether *slot is v.
func bindTo[T comparable](slot *T, binds bool, v T) bool {
	if binds {
		*slot = v
	}
	return *slot == v
}
