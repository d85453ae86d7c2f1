package term

import (
	"fmt"
	"strconv"

	"repro/internal/algebra"
)

// This file adds the sparse and irregular collectives of the
// neighborhood/message-combining literature (Träff et al., Jocksch et
// al.; see PAPERS.md) to the functional framework:
//
//   - Halo: an isomorphic (or per-rank) sparse neighborhood exchange —
//     every processor receives the blocks of its neighbors.
//   - AllGatherV: the irregular-block allgather — per-rank block sizes
//     given by a counts vector, every processor receives the full
//     concatenation.
//   - ReduceScatterV: the irregular-block reduce-scatter — blocks are
//     combined rank-ordered and processor i keeps its counts[i]-slice.
//
// Their semantics below are what the message-combining rules in package
// rules are verified against.

// Hood describes a neighborhood. Exactly one of Offsets and Lists is
// set.
//
// Offsets is the isomorphic form: processor i's j-th neighbor is
// processor (i+Offsets[j]) mod p, the same relative pattern at every
// rank (a ring halo is Offsets = [-1, 1]). Offsets may repeat and may
// include 0; offsets congruent mod p are served by one message.
//
// Lists is the non-isomorphic form: Lists[i] holds the absolute source
// ranks of processor i, pinning the neighborhood to p = len(Lists).
// It has no surface syntax and exists to express neighborhoods the
// combining rule must refuse to fuse.
type Hood struct {
	Offsets []int
	Lists   [][]int
}

// Isomorphic reports whether the neighborhood is in offset form.
func (h *Hood) Isomorphic() bool { return h.Lists == nil }

// Sources returns the absolute source ranks of processor i in a world
// of n processors, in neighbor order.
func (h *Hood) Sources(i, n int) []int {
	if h.Isomorphic() {
		src := make([]int, len(h.Offsets))
		for j, o := range h.Offsets {
			src[j] = ((i+o)%n + n) % n
		}
		return src
	}
	if len(h.Lists) != n {
		panic(fmt.Sprintf("term: halo neighborhood pins p=%d, evaluated at p=%d", len(h.Lists), n))
	}
	return h.Lists[i]
}

// Degree is the number of neighbors of processor i (i ignored for the
// isomorphic form).
func (h *Hood) Degree(i int) int {
	if h.Isomorphic() {
		return len(h.Offsets)
	}
	return len(h.Lists[i])
}

// Width is the fan-in of the halo's output tuple, the factor by which a
// block grows: the offset count, else the longest neighbour list.
func (h *Hood) Width() int {
	if h.Isomorphic() {
		return len(h.Offsets)
	}
	w := 0
	for _, l := range h.Lists {
		w = max(w, len(l))
	}
	return w
}

// listsString renders per-rank source lists, "lists:[1 2],[0]".
func listsString(lists [][]int) string {
	b := []byte("lists:")
	for i, l := range lists {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for j, s := range l {
			if j > 0 {
				b = append(b, ' ')
			}
			b = strconv.AppendInt(b, int64(s), 10)
		}
		b = append(b, ']')
	}
	return string(b)
}

// EqualHoods reports structural equality of two neighborhoods.
func EqualHoods(a, b *Hood) bool {
	if a == nil || b == nil {
		return a == b
	}
	if a.Isomorphic() != b.Isomorphic() {
		return false
	}
	if a.Isomorphic() {
		return equalInts(a.Offsets, b.Offsets)
	}
	if len(a.Lists) != len(b.Lists) {
		return false
	}
	for i := range a.Lists {
		if !equalInts(a.Lists[i], b.Lists[i]) {
			return false
		}
	}
	return true
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Halo is the sparse neighborhood exchange: processor i receives the
// list ⟨x_{s} : s ∈ neighbors(i)⟩ of its neighbors' blocks, in neighbor
// order. The ring wraps, so a grid halo on a row or column communicator
// is periodic.
type Halo struct {
	H *Hood
}

func (h Halo) isTerm()        {}
func (h Halo) String() string { return Seq{h}.String() }

// AllGatherV is the irregular-block allgather: processor i holds a
// block of Counts[i] words and every processor receives the flat
// concatenation of all blocks in rank order (total ΣCounts words). The
// counts pin p = len(Counts).
type AllGatherV struct {
	Counts []int
}

func (a AllGatherV) isTerm()        {}
func (a AllGatherV) String() string { return Seq{a}.String() }

// ReduceScatterV is the irregular-block reduce-scatter: every processor
// holds a ΣCounts-word vector, the vectors are combined with ⊕ in rank
// order, and processor i keeps the counts[i]-word slice at its
// displacement. The counts pin p = len(Counts).
type ReduceScatterV struct {
	Op     *algebra.Op
	Counts []int
}

func (r ReduceScatterV) isTerm()        {}
func (r ReduceScatterV) String() string { return Seq{r}.String() }

// CountsStage returns the counts vector of a stage that carries one
// (AllGatherV or ReduceScatterV) and whether it did. Such stages pin
// the machine size to len(counts).
func CountsStage(t Term) ([]int, bool) {
	switch s := t.(type) {
	case AllGatherV:
		return s.Counts, true
	case ReduceScatterV:
		return s.Counts, true
	}
	return nil, false
}

// SumCounts is the total word count of an irregular counts vector.
func SumCounts(counts []int) int {
	total := 0
	for _, c := range counts {
		total += c
	}
	return total
}

// Displs returns the rank displacements (exclusive prefix sums) of a
// counts vector.
func Displs(counts []int) []int {
	d := make([]int, len(counts))
	sum := 0
	for i, c := range counts {
		d[i] = sum
		sum += c
	}
	return d
}

// evalHalo gives the functional semantics of the neighborhood exchange:
// out[i] = ⟨xs[s] : s ∈ sources(i)⟩, a flat tuple boxed.
func evalHalo(h *Hood, xs []algebra.Value) []algebra.Value {
	n := len(xs)
	out := make([]algebra.Value, n)
	for i := range xs {
		src := h.Sources(i, n)
		nb := make(algebra.Tuple, len(src))
		for j, s := range src {
			nb[j] = algebra.Boxed(xs[s])
		}
		out[i] = nb
	}
	return out
}

// evalAllGatherV concatenates the ragged blocks in rank order and
// delivers the flat result everywhere. Inputs are strict: processor i
// must hold a Counts[i]-element vector (compare Scatter, which panics
// on a shape mismatch).
func evalAllGatherV(counts []int, xs []algebra.Value) []algebra.Value {
	n := len(xs)
	if len(counts) != n {
		panic(fmt.Sprintf("term: allgatherv with %d counts evaluated at p=%d", len(counts), n))
	}
	total := SumCounts(counts)
	flat := make(algebra.Vec, 0, total)
	for i, x := range xs {
		v, ok := x.(algebra.Vec)
		if !ok || len(v) != counts[i] {
			panic(fmt.Sprintf("term: allgatherv needs a %d-word vector on processor %d, got %v", counts[i], i, x))
		}
		flat = append(flat, v...)
	}
	out := make([]algebra.Value, n)
	for i := range out {
		out[i] = flat
	}
	return out
}

// evalReduceScatterV folds the per-processor vectors with ⊕ in rank
// order and hands processor i its counts[i]-slice at displacement
// displs[i].
func evalReduceScatterV(op *algebra.Op, counts []int, xs []algebra.Value) []algebra.Value {
	n := len(xs)
	if len(counts) != n {
		panic(fmt.Sprintf("term: reduce_scatterv with %d counts evaluated at p=%d", len(counts), n))
	}
	y := xs[0]
	for _, x := range xs[1:] {
		y = op.ApplyInto(nil, y, x) // a flat tuple as the tuple it stands for
	}
	v, ok := y.(algebra.Vec)
	if !ok {
		panic(fmt.Sprintf("term: reduce_scatterv(%s) combined to a non-vector %v", op.Name, y))
	}
	displs := Displs(counts)
	total := SumCounts(counts)
	if len(v) < total {
		panic(fmt.Sprintf("term: reduce_scatterv needs %d combined words, got %d", total, len(v)))
	}
	out := make([]algebra.Value, n)
	for i := range out {
		seg := make(algebra.Vec, counts[i])
		copy(seg, v[displs[i]:displs[i]+counts[i]])
		out[i] = seg
	}
	return out
}
