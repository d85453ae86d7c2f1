package rules

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/term"
)

// This file contains extension rules beyond the paper's Table 1 set.
// §2.1 observes that compositions of collective operations "can also
// arise as a result of program transformations if, e.g., some local and
// collective stages are interchanged, exploiting their data
// independence" — the mobility and fusion rules below mechanize exactly
// that, together with two classic collective fusions (reduce;bcast →
// allreduce and the idempotence of broadcast) that the paper's framework
// proves with the same techniques.
//
// Extension rules are not part of All(); use AllWithExtensions() or set
// Engine.Rules explicitly.

// BMMobility moves a local stage leftward across a broadcast:
//
//	bcast ; map f  →  map f ; bcast
//
// Both sides equal [f x₁, f x₁, …]: on the left f is applied to the
// broadcast copy everywhere, on the right the broadcast ships the already
// transformed first block. The estimated cost is unchanged (map runs in
// parallel either way) but the move exposes fusion windows: in
// bcast ; map f ; scan(⊕) it uncovers bcast ; scan(⊕) for BS-Comcast.
var BMMobility = Rule{
	Name:        "BM-Mobility",
	Class:       "Mobility",
	Window:      2,
	Pattern:     "bcast ; map f",
	Cond:        "—",
	Result:      "map f ; bcast",
	CostNeutral: true,
	Head:        term.Bcast{},
	Try: func(dst, w []term.Term, env Env) ([]term.Term, bool) {
		if !isBcast(w[0]) {
			return dst, false
		}
		m, ok := w[1].(term.Map)
		if !ok {
			return dst, false
		}
		return append(dst, m, term.Bcast{}), true
	},
}

// MMLocal fuses two adjacent local stages into one — the PolyEval_2 →
// PolyEval_3 step of §5.1 as a rule:
//
//	map f ; map g  →  map (f; g)
//
// The fused function is elementwise exactly when both parts are, and has a
// destination-passing form when both parts have one.
var MMLocal = Rule{
	Name:        "MM-Local",
	Class:       "Local",
	Window:      2,
	Pattern:     "map f ; map g",
	Cond:        "—",
	Result:      "map (f; g)",
	CostNeutral: true,
	Head:        term.Map{},
	Try: func(dst, w []term.Term, env Env) ([]term.Term, bool) {
		f, ok := w[0].(term.Map)
		if !ok {
			return dst, false
		}
		g, ok := w[1].(term.Map)
		if !ok {
			return dst, false
		}
		ff, gg := f.F, g.F
		fused := local(fmt.Sprintf("(%s; %s)", ff.Name, gg.Name), ff.Cost+gg.Cost, ff.Elementwise && gg.Elementwise,
			func(ar *algebra.Arena, v algebra.Value) algebra.Value {
				return term.Apply(ar, gg, term.Apply(ar, ff, v))
			})
		return append(dst, term.Map{F: fused}), true
	},
}

// RBAllReduce fuses a root reduction followed by a broadcast of the
// result into a single all-reduction — the textbook
// MPI_Reduce + MPI_Bcast → MPI_Allreduce fusion, provable in the
// framework from equations (5), (6) and (8):
//
//	reduce(⊕) ; bcast  →  allreduce(⊕)
//
// One butterfly instead of two tree traversals: always an improvement.
var RBAllReduce = Rule{
	Name:    "RB-AllReduce",
	Class:   "Reduction",
	Window:  2,
	Pattern: "reduce(⊕) ; bcast",
	Cond:    "⊕ is associative",
	Result:  "allreduce(⊕)",
	Head:    term.Reduce{},
	Try: func(dst, w []term.Term, env Env) ([]term.Term, bool) {
		op, all, ok := matchReduce(w[0])
		if !ok || all || !assoc(env, op) {
			return dst, false
		}
		if !isBcast(w[1]) {
			return dst, false
		}
		return append(dst, term.Reduce{Op: op, All: true}), true
	},
}

// BBBcast collapses consecutive broadcasts — the second re-broadcasts the
// value the first already delivered everywhere:
//
//	bcast ; bcast  →  bcast
var BBBcast = Rule{
	Name:    "BB-Bcast",
	Class:   "Comcast",
	Window:  2,
	Pattern: "bcast ; bcast",
	Cond:    "—",
	Result:  "bcast",
	Head:    term.Bcast{},
	Try: func(dst, w []term.Term, env Env) ([]term.Term, bool) {
		if !isBcast(w[0]) || !isBcast(w[1]) {
			return dst, false
		}
		return append(dst, term.Bcast{}), true
	},
}

// ABAllReduce drops a broadcast after an all-reduction: every processor
// already holds the result:
//
//	allreduce(⊕) ; bcast  →  allreduce(⊕)
var ABAllReduce = Rule{
	Name:    "AB-AllReduce",
	Class:   "Reduction",
	Window:  2,
	Pattern: "allreduce(⊕) ; bcast",
	Cond:    "—",
	Result:  "allreduce(⊕)",
	Head:    term.Reduce{},
	Try: func(dst, w []term.Term, env Env) ([]term.Term, bool) {
		op, all, ok := matchReduce(w[0])
		if !ok || !all {
			return dst, false
		}
		if !isBcast(w[1]) {
			return dst, false
		}
		return append(dst, term.Reduce{Op: op, All: true}), true
	},
}

// GSId eliminates a gather immediately undone by a scatter — the
// redistribution round trip costs two tree traversals of the whole data
// and computes nothing:
//
//	gather ; scatter  →  (removed)
var GSId = Rule{
	Name:    "GS-Id",
	Class:   "Local",
	Window:  2,
	Pattern: "gather ; scatter",
	Cond:    "—",
	Result:  "(identity)",
	Head:    term.Gather{},
	Try: func(dst, w []term.Term, env Env) ([]term.Term, bool) {
		if _, ok := w[0].(term.Gather); !ok {
			return dst, false
		}
		if _, ok := w[1].(term.Scatter); !ok {
			return dst, false
		}
		return dst, true
	},
}

// SGId eliminates a scatter immediately undone by a gather. The root's
// list is reassembled bitwise identically, so the pair is the identity on
// the first processor — and the other processors' values are don't-cares
// before and after (they hold scatter chunks that the gather re-collects).
//
//	scatter ; gather  →  (removed)
var SGId = Rule{
	Name:    "SG-Id",
	Class:   "Local",
	Window:  2,
	Pattern: "scatter ; gather",
	Cond:    "—",
	Result:  "(identity)",
	Head:    term.Scatter{},
	Try: func(dst, w []term.Term, env Env) ([]term.Term, bool) {
		if _, ok := w[0].(term.Scatter); !ok {
			return dst, false
		}
		if _, ok := w[1].(term.Gather); !ok {
			return dst, false
		}
		return dst, true
	},
}

// Extensions returns the extension rules, ordered so that genuine
// fusions precede the cost-neutral moves.
func Extensions() []Rule {
	return []Rule{RBAllReduce, ABAllReduce, BBBcast, GSId, SGId, BMMobility, MMLocal}
}

// AllWithExtensions returns the paper's rules followed by the extensions
// and the sparse message-combining rules. The paper rules keep priority;
// mobility and local fusion fire only when nothing else does, which is
// what makes them window-openers rather than noise.
func AllWithExtensions() []Rule {
	out := append(All(), Extensions()...)
	return append(out, Sparse()...)
}
