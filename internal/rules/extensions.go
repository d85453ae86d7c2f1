package rules

import "repro/internal/term"

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

// BMMobility moves a local stage leftward across a broadcast. Both sides
// equal [f x₁, f x₁, …]: on the left f is applied to the broadcast copy
// everywhere, on the right the broadcast ships the already transformed
// first block. The estimated cost is unchanged (map runs in parallel either
// way) but the move exposes fusion windows: in bcast ; map f ; scan(⊕) it
// uncovers bcast ; scan(⊕) for BS-Comcast.
var BMMobility = statement{name: "BM-Mobility", class: "Mobility", neutral: true,
	window: "bcast ; map f", result: "map f ; bcast",
	build: func(b binding) []term.Term { return []term.Term{term.Map{F: b.fns[0]}, term.Bcast{}} },
}.rule()

// MMLocal fuses two adjacent local stages into one — the PolyEval_2 →
// PolyEval_3 step of §5.1 as a rule. The fused function is elementwise
// exactly when both parts are, and has a destination-passing form when both
// parts have one.
var MMLocal = statement{name: "MM-Local", class: "Local", neutral: true,
	window: "map f ; map g", result: "map (f; g)",
	build: func(b binding) []term.Term {
		return []term.Term{term.Map{F: fused(b.fns[0], b.fns[1])}}
	},
}.rule()

// RBAllReduce fuses a root reduction followed by a broadcast of the result
// into a single all-reduction — the textbook MPI_Reduce + MPI_Bcast →
// MPI_Allreduce fusion, provable in the framework from equations (5), (6)
// and (8). One butterfly instead of two tree traversals: always an
// improvement.
var RBAllReduce = statement{name: "RB-AllReduce", class: "Reduction", cond: associative,
	window: "reduce(⊕) ; bcast", result: "allreduce(⊕)",
	build: func(b binding) []term.Term { return []term.Term{term.Reduce{Op: b.ops[oplus], All: true}} },
}.rule()

// BBBcast collapses consecutive broadcasts — the second re-broadcasts the
// value the first already delivered everywhere.
var BBBcast = statement{name: "BB-Bcast", class: "Comcast",
	window: "bcast ; bcast", result: "bcast",
	build: func(b binding) []term.Term { return []term.Term{term.Bcast{}} },
}.rule()

// ABAllReduce drops a broadcast after an all-reduction: every processor
// already holds the result.
var ABAllReduce = statement{name: "AB-AllReduce", class: "Reduction",
	window: "allreduce(⊕) ; bcast", result: "allreduce(⊕)",
	build: func(b binding) []term.Term { return []term.Term{term.Reduce{Op: b.ops[oplus], All: true}} },
}.rule()

// GSId eliminates a gather immediately undone by a scatter — the
// redistribution round trip costs two tree traversals of the whole data and
// computes nothing.
var GSId = statement{name: "GS-Id", class: "Local",
	window: "gather ; scatter", result: "(identity)",
	build: func(b binding) []term.Term { return []term.Term{} },
}.rule()

// SGId eliminates a scatter immediately undone by a gather. The root's list
// is reassembled bitwise identically, so the pair is the identity on the
// first processor — and the other processors' values are don't-cares before
// and after (they hold scatter chunks that the gather re-collects).
var SGId = statement{name: "SG-Id", class: "Local",
	window: "scatter ; gather", result: "(identity)",
	build: func(b binding) []term.Term { return []term.Term{} },
}.rule()

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
