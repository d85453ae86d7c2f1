package rules

import (
	"fmt"
	"math/rand"

	"repro/internal/algebra"
	"repro/internal/term"
)

// Message-combining rules for the sparse and irregular collectives
// (term.Halo, term.AllGatherV, term.ReduceScatterV), after Träff et
// al.'s message-combining algorithms for isomorphic sparse collectives
// and the classic reduce_scatter+allgather ↔ allreduce equivalence
// (Jocksch et al.). Like the paper rules they are syntactic patterns
// with algebraic side conditions, verified against the functional
// semantics; docs/SPARSE.md derives their cost lines.
//
// The sparse rules are part of the default engine rule set (see
// Sparse): their patterns only match sparse stages, so they are inert
// on dense programs and cannot perturb existing optimizations.

// EachFn lifts f to the neighbor tuples a halo delivers: each(f)
// applies f to every component. Moving a map across a halo turns map f
// into map each(f) — same per-element cost, but charged on the |H|-fold
// wider post-halo block. It is elementwise exactly when f is.
func EachFn(f *term.Fn) *term.Fn {
	return local(fmt.Sprintf("each(%s)", f.Name), f.Cost, f.Elementwise, func(ar *algebra.Arena, v algebra.Value) algebra.Value {
		t, ok := v.(algebra.Tuple)
		if !ok {
			// Off-domain input (the verifier samples windows out of
			// context): undetermined, per the §3.5 discipline.
			return algebra.Undef{}
		}
		out, boxed := ar.Tuple(len(t))
		for i, c := range t {
			out[i] = term.Apply(ar, f, c)
		}
		return boxed
	})
}

// RegroupFn renests a flat combined-halo tuple of n1·n2 components into
// the n2-tuple of n1-tuples the uncombined halos would have delivered:
// component j·n1+k of the input becomes component k of output component
// j. Pure bookkeeping — no element is touched, so the cost is zero
// (§4.2's "small additive constant ... which we ignore") and the function
// is elementwise.
func RegroupFn(n1, n2 int) *term.Fn {
	return local(fmt.Sprintf("regroup_%dx%d", n1, n2), 0, true, func(ar *algebra.Arena, v algebra.Value) algebra.Value {
		t, ok := v.(algebra.Tuple)
		if !ok || len(t) != n1*n2 {
			// Off-domain input (the verifier samples windows out of
			// context): undetermined, per the §3.5 discipline.
			return algebra.Undef{}
		}
		out, boxed := ar.Tuple(n2)
		for j := range out {
			inner, b := ar.Tuple(n1)
			copy(inner, t[j*n1:(j+1)*n1])
			out[j] = b
		}
		return boxed
	})
}

// HHCombine is the message-combining rule for consecutive halos:
//
//	halo(O1) ; halo(O2)  →  halo(O2+O1) ; map regroup
//	provided both neighborhoods are isomorphic (offset form).
//
// The combined neighborhood is the sumset {q+o : q ∈ O2, o ∈ O1} in
// q-major order, and the free regroup renests the flat tuple. One
// exchange instead of two: offsets that collide mod p now share a
// message, so both the start-ups and the shipped words can shrink (the
// ±1 ring halo squared has 4 offset pairs but only 2 distinct
// neighbors). The offset arithmetic is what a per-rank neighbor-list
// neighborhood does not support — the side condition the negative
// tests pin. The combined window is never estimated dearer than the pair —
// equal only in degenerate all-local cases — so the cost-guided engine
// fires it on equality too.
var HHCombine = statement{name: "HH-Combine", class: "Sparse", cond: isomorphic, neutral: true,
	window: "halo(O1) ; halo(O2)", result: "halo(O2+O1) ; map regroup",
	build: func(b binding) []term.Term {
		o1, o2 := b.hoods[0].Offsets, b.hoods[1].Offsets
		combined := make([]int, 0, len(o1)*len(o2))
		for _, q := range o2 {
			for _, o := range o1 {
				combined = append(combined, q+o)
			}
		}
		return []term.Term{term.Halo{H: &term.Hood{Offsets: combined}}, term.Map{F: RegroupFn(len(o1), len(o2))}}
	},
}.rule()

// MHMobility moves a local stage rightward across a halo:
//
//	map f ; halo(H)  →  halo(H) ; map each(f)
//
// Both sides deliver ⟨f x_s : s ∈ neighbors⟩. The move is never an
// improvement by itself — each(f) runs on the |H|-fold wider post-halo
// block — so the greedy engine never takes it; its value is opening
// HH-Combine windows in halo ; map f ; halo pipelines, which only the
// plan search discovers (the sparse analogue of the greedy trap in
// docs/RULES.md).
var MHMobility = statement{name: "MH-Mobility", class: "Mobility",
	window: "map f ; halo(H)", result: "halo(H) ; map each(f)",
	build: func(b binding) []term.Term {
		return []term.Term{term.Halo{H: b.hoods[0]}, term.Map{F: EachFn(b.fns[0])}}
	},
}.rule()

// RSAGAllReduce fuses the irregular reduce-scatter with the allgather
// that undoes its scatter:
//
//	reduce_scatterv(⊕, c) ; allgatherv(c)  →  allreduce(⊕)
//	provided the counts vectors are equal, ⊕ is associative and
//	elementwise, and the machine size matches the counts.
//
// Slicing the rank-ordered fold and re-concatenating the slices is the
// fold itself exactly when ⊕ combines position by position — MatMul is
// associative but not elementwise, and for it the left side computes
// block-row products the right side never forms.
var RSAGAllReduce = statement{name: "RSAG-AllReduce", class: "Sparse", cond: elementwise,
	window: "reduce_scatterv(⊕,c) ; allgatherv(c)", result: "allreduce(⊕)",
	build: func(b binding) []term.Term { return []term.Term{term.Reduce{Op: b.ops[oplus], All: true}} },
}.rule()

// Sparse returns the message-combining rules for the sparse and
// irregular collectives, ordered like All(): genuine fusions first,
// the mobility window-opener last.
func Sparse() []Rule {
	return []Rule{HHCombine, RSAGAllReduce, MHMobility}
}

// IncTupFn is the sparse pipelines' local stage: elementwise +1 that
// recurses through the neighbor tuples halos deliver (IncFn's + lift
// broadcasts over vectors but not tuples, so a map between two halos
// needs the deep form).
var IncTupFn = local("inc_t", 1, true, incTup)

// incTup is inc_t's body: inc on every block, in tuples of ar's.
func incTup(ar *algebra.Arena, v algebra.Value) algebra.Value {
	t, ok := v.(algebra.Tuple)
	if !ok {
		return inc(ar, v)
	}
	out, boxed := ar.Tuple(len(t))
	for i, c := range t {
		out[i] = incTup(ar, c)
	}
	return boxed
}

// RandSparseProgram builds a random sparse pipeline for the property
// harness: halo chains with interspersed local stages, or a ragged
// reduce_scatterv/allgatherv pair over a random counts vector (possibly
// with zero-length and maximally skewed blocks). Unlike RandProgram it
// returns programs whose input shapes depend on the stages, so callers
// pair it with SparseInputs.
func RandSparseProgram(rng *rand.Rand, p int) term.Seq {
	switch rng.Intn(3) {
	case 0:
		// halo chain: 2-3 halos with optional maps between them.
		n := 2 + rng.Intn(2)
		prog := make(term.Seq, 0, 2*n)
		for i := 0; i < n; i++ {
			prog = append(prog, term.Halo{H: &term.Hood{Offsets: randOffsets(rng)}})
			if i+1 < n && rng.Intn(2) == 0 {
				prog = append(prog, term.Map{F: IncTupFn})
			}
		}
		return prog
	case 1:
		// map-then-halo, the MH-Mobility shape.
		return term.Seq{
			term.Map{F: IncFn},
			term.Halo{H: &term.Hood{Offsets: randOffsets(rng)}},
		}
	default:
		counts := RandCounts(rng, p)
		prog := term.Seq{
			term.ReduceScatterV{Op: genOps[rng.Intn(4)], Counts: counts},
			term.AllGatherV{Counts: counts},
		}
		if rng.Intn(2) == 0 {
			prog = append(prog, term.Map{F: IncTupFn})
		}
		return prog
	}
}

func randOffsets(rng *rand.Rand) []int {
	k := 1 + rng.Intn(3)
	offs := make([]int, k)
	for i := range offs {
		offs[i] = rng.Intn(7) - 3
	}
	return offs
}

// RandCounts draws a random counts vector for p ranks: mostly small
// ragged blocks, sometimes zero-padded, sometimes maximally skewed
// (one rank owns everything).
func RandCounts(rng *rand.Rand, p int) []int {
	counts := make([]int, p)
	switch rng.Intn(4) {
	case 0:
		// Maximally skewed: one rank owns everything.
		counts[rng.Intn(p)] = 1 + rng.Intn(5)
	default:
		for i := range counts {
			counts[i] = rng.Intn(4) // zero-length blocks included
		}
	}
	return counts
}

// SparseInputs generates an input list matching the shape the program's
// first shape-determining stage demands: a full ΣCounts-word vector per
// rank ahead of a reduce_scatterv, rank-ragged counts[r]-word vectors
// ahead of an allgatherv, and scalars otherwise (a halo works on any
// value). It is the Gen the shaped verification installs for programs
// with counts-carrying stages.
func SparseInputs(prog term.Seq, rng *rand.Rand, n int) []algebra.Value {
	vec := func(words int) algebra.Value {
		v := make(algebra.Vec, words)
		for j := range v {
			v[j] = float64(rng.Intn(13) - 6)
		}
		return v
	}
	in := make([]algebra.Value, n)
	for _, st := range term.Stages(prog) {
		switch s := st.(type) {
		case term.ReduceScatterV:
			for i := range in {
				in[i] = vec(term.SumCounts(s.Counts))
			}
			return in
		case term.AllGatherV:
			for i := range in {
				words := 0
				if i < len(s.Counts) {
					words = s.Counts[i]
				}
				in[i] = vec(words)
			}
			return in
		}
	}
	for i := range in {
		in[i] = algebra.Scalar(float64(rng.Intn(13) - 6))
	}
	return in
}
