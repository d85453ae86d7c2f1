// Package term implements the formal framework of §2.2 of the paper:
// parallel programs as compositions of functions on lists, where element i
// of the list is the block held by processor i. A Term is the abstract
// syntax of such a program; Eval gives its functional semantics
// (equations (4)–(8)), independent of any machine, which is what the
// optimization rules are proved against.
package term

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/algebra"
)

// Fn is a named unary function on per-processor values, the f of a local
// stage map f. Cost is its per-element operation count, used by the cost
// calculus and the machine executor.
type Fn struct {
	// Name identifies the function in printed terms.
	Name string
	// Cost is elementary operations per block element.
	Cost int
	// F is the function itself.
	F func(algebra.Value) algebra.Value
	// Elementwise declares that F acts on each word of a block by itself,
	// whatever the tuple nesting: applied to blocks that lay several inputs
	// side by side it computes, word for word, what it computes on each
	// input alone. Declared, not inferred — like the properties of
	// algebra.Registry — and false is always safe: package rules then
	// verifies a program containing the function one input at a time.
	Elementwise bool
	// Into, if non-nil, is F drawing from an arena: it returns F(x), bit
	// for bit, draws every block and tuple header it builds from a, and
	// never writes into x. What it returns is valid as long as a's buffers
	// are: until a Scratch's next Reset, until a rank's next run for a
	// rank's arena, for good on a nil arena. Apply calls it.
	Into func(a *algebra.Arena, x algebra.Value) algebra.Value
}

func (f *Fn) String() string { return f.Name }

// Apply is f.F(x) with its blocks and tuple headers drawn from a — a
// Scratch's arena in the evaluator, a rank's in the executor, nil to
// allocate — the one way the evaluator and every rank apply a local
// function: π₁ is algebra.First, a view, a duplication fills a tuple of
// a's, and a function with Into runs it. A flat tuple stands for the boxed
// tuple it represents. x is never written.
func Apply(a *algebra.Arena, f *Fn, x algebra.Value) algebra.Value {
	if f == FirstFn {
		return algebra.First(x)
	}
	x = algebra.Boxed(x)
	if w := duplicates(f); w > 0 {
		t, boxed := a.Tuple(w)
		for i := range t {
			t[i] = x
		}
		return boxed
	}
	if f.Into != nil {
		return f.Into(a, x)
	}
	return f.F(x)
}

// duplicates is the width of the tuple f builds when f is one of the
// duplications of §2.3, else 0.
func duplicates(f *Fn) int {
	switch f {
	case PairFn:
		return 2
	case TripleFn:
		return 3
	case QuadrupleFn:
		return 4
	}
	return 0
}

// Predefined local functions: the auxiliary-variable constructions of
// §2.3. Duplication and projection touch no element values, so their cost
// is zero, matching the paper's "they contribute just a small additive
// constant ... which we ignore" (§4.2).
var (
	// PairFn duplicates into a pair.
	PairFn = &Fn{Name: "pair", F: algebra.Pair, Elementwise: true}
	// TripleFn duplicates into a triple.
	TripleFn = &Fn{Name: "triple", F: algebra.Triple, Elementwise: true}
	// QuadrupleFn duplicates into a quadruple.
	QuadrupleFn = &Fn{Name: "quadruple", F: algebra.Quadruple, Elementwise: true}
	// FirstFn is the projection π₁.
	FirstFn = &Fn{Name: "pi_1", F: algebra.First, Elementwise: true}
)

// IdxFn is a named function on per-processor values that additionally
// receives the processor number — the argument of map# (equation (13)).
type IdxFn struct {
	// Name identifies the function in printed terms.
	Name string
	// F applies the function at processor index i.
	F func(i int, v algebra.Value) algebra.Value
	// Charge is the computation cost at index i on blocks of m words.
	Charge func(i, m int) float64
}

func (f *IdxFn) String() string { return f.Name }

// RepeatFn wraps the repeat schema of a Comcast rule as a map# function:
// op_comp k = prepare ; repeat(e,o) k ; π₁.
func RepeatFn(ops *algebra.RepeatOps) *IdxFn {
	return &IdxFn{
		Name: "op_comp[" + ops.Name + "]",
		F: func(i int, v algebra.Value) algebra.Value {
			return algebra.First(ops.Repeat(i, ops.Prepare(v)))
		},
		Charge: func(i, m int) float64 { return ops.RepeatCharge(i, m) },
	}
}

// Term is a program in the functional framework. The concrete types are
// Map, MapIdx, Scan, ScanBal, Reduce, Bcast, Comcast, Iter and Seq.
type Term interface {
	fmt.Stringer
	isTerm()
}

// Map is a local stage: map f (equation (4)).
type Map struct {
	F *Fn
}

func (m Map) isTerm()        {}
func (m Map) String() string { return Seq{m}.String() }

// MapIdx is an index-aware local stage: map# f (equation (13)).
type MapIdx struct {
	F *IdxFn
}

func (m MapIdx) isTerm()        {}
func (m MapIdx) String() string { return Seq{m}.String() }

// Scan is the collective scan(⊕) (equation (7)); the operator must be
// associative.
type Scan struct {
	Op *algebra.Op
}

func (s Scan) isTerm()        {}
func (s Scan) String() string { return Seq{s}.String() }

// ScanBal is the balanced scan of §3.3, parameterized by a
// BalancedScanOp; it appears only on the right-hand side of rule SS-Scan.
type ScanBal struct {
	Op *algebra.BalancedScanOp
}

func (s ScanBal) isTerm()        {}
func (s ScanBal) String() string { return Seq{s}.String() }

// Reduce covers the four reduction collectives: reduce/allreduce
// (equations (5), (6)) and their balanced variants of §3.2 (which appear
// on the right-hand side of rule SR-Reduction and tolerate non-associative
// operators).
type Reduce struct {
	Op *algebra.Op
	// All delivers the result to every processor (allreduce).
	All bool
	// Balanced uses the balanced binary tree / butterfly of §3.2.
	Balanced bool
}

func (r Reduce) isTerm()        {}
func (r Reduce) String() string { return Seq{r}.String() }

// Bcast is the broadcast collective (equation (8)); the root is the first
// processor, per §2.2.
type Bcast struct{}

func (b Bcast) isTerm()        {}
func (b Bcast) String() string { return Seq{b}.String() }

// Comcast is the compute-after-broadcast pattern of §3.4 as a single
// collective: processor i receives g^i(b). It records the repeat ops so
// both implementations (cost-optimal doubling and bcast+repeat) can
// realize it; CostOptimal selects the doubling scheme.
type Comcast struct {
	Ops *algebra.RepeatOps
	// CostOptimal selects the successive-doubling implementation the
	// paper calls cost-optimal (and measures to be slower).
	CostOptimal bool
}

func (c Comcast) isTerm()        {}
func (c Comcast) String() string { return Seq{c}.String() }

// Gather collects the per-processor values into a single list value on
// the first processor: [x₁, …, xn] → [⟨x₁…xn⟩, _, …, _]. The list is an
// algebra.Tuple, so a subsequent Scatter can redistribute it.
type Gather struct{}

func (g Gather) isTerm()        {}
func (g Gather) String() string { return Seq{g}.String() }

// Scatter distributes the first processor's list value, one component per
// processor: [⟨x₁…xn⟩, _, …, _] → [x₁, …, xn]. The inverse of Gather.
type Scatter struct{}

func (s Scatter) isTerm()        {}
func (s Scatter) String() string { return Seq{s}.String() }

// Iter is the local iteration schema of the Local rules (§3.5):
// iter f [x, _, …, _] = [f^(log p) x, _, …, _].
type Iter struct {
	Op *algebra.IterOp
}

func (i Iter) isTerm()        {}
func (i Iter) String() string { return Seq{i}.String() }

// Seq is forward composition: (f ; g) x = g (f x) (equation (3)).
type Seq []Term

func (s Seq) isTerm() {}

// String renders the stages joined by " ; ", each as pieces prints it. It
// sizes the text before writing it, so a flat Seq costs one allocation.
func (s Seq) String() string {
	var digits [24]byte
	n := len(" ; ") * max(len(s)-1, 0)
	for _, st := range s {
		head, name, sep, ints, tail := pieces(st)
		n += len(head) + len(name) + len(sep) + len(tail)
		for i, x := range ints {
			n += len(appendInt(digits[:0], i, x))
		}
	}
	var b strings.Builder
	b.Grow(n)
	for i, st := range s {
		if i > 0 {
			b.WriteString(" ; ")
		}
		head, name, sep, ints, tail := pieces(st)
		b.WriteString(head)
		b.WriteString(name)
		b.WriteString(sep)
		for i, x := range ints {
			b.Write(appendInt(digits[:0], i, x))
		}
		b.WriteString(tail)
	}
	return b.String()
}

// AppendStage appends the rendering of a stage, as its String prints it.
func AppendStage(b []byte, st Term) []byte {
	head, name, sep, ints, tail := pieces(st)
	b = append(append(append(b, head...), name...), sep...)
	for i, x := range ints {
		b = appendInt(b, i, x)
	}
	return append(b, tail...)
}

// appendInt appends x, the i-th of a list of integers, after a comma unless
// it is the first.
func appendInt(b []byte, i, x int) []byte {
	if i > 0 {
		b = append(b, ',')
	}
	return strconv.AppendInt(b, int64(x), 10)
}

// reduceHeads are the reductions' renderings up to the operator, indexed
// by 2·All + Balanced.
var reduceHeads = [4]string{"reduce(", "reduce_balanced(", "allreduce(", "allreduce_balanced("}

// pieces is the one rendering of a stage: the pieces head, name, sep, the
// integers ints joined by commas (a halo's offsets, the counts) and tail,
// written back to back. For every stage the lang grammar has it is the
// syntax the parser accepts. A nested Seq, and a stage defined outside this
// package, renders as its String, in head; a halo over per-rank source
// lists, a form no grammar spells, renders them in name.
func pieces(st Term) (head, name, sep string, ints []int, tail string) {
	switch x := st.(type) {
	case Map:
		return "map ", x.F.Name, "", nil, ""
	case MapIdx:
		return "map# ", x.F.Name, "", nil, ""
	case Scan:
		return "scan(", x.Op.Name, "", nil, ")"
	case ScanBal:
		return "scan_balanced(", x.Op.Name, "", nil, ")"
	case Reduce:
		i := 0
		if x.All {
			i = 2
		}
		if x.Balanced {
			i++
		}
		return reduceHeads[i], x.Op.Name, "", nil, ")"
	case Bcast:
		return "bcast", "", "", nil, ""
	case Gather:
		return "gather", "", "", nil, ""
	case Scatter:
		return "scatter", "", "", nil, ""
	case Comcast:
		if x.CostOptimal {
			return "comcast(", x.Ops.Name, "", nil, ")"
		}
		return "bcast; map# repeat(", x.Ops.Name, "", nil, ")"
	case Iter:
		return "iter(", x.Op.Name, "", nil, ")"
	case Halo:
		if x.H.Isomorphic() {
			return "halo(", "", "", x.H.Offsets, ")"
		}
		return "halo(", listsString(x.H.Lists), "", nil, ")"
	case AllGatherV:
		return "allgatherv(", "", "", x.Counts, ")"
	case ReduceScatterV:
		return "reduce_scatterv(", x.Op.Name, ",", x.Counts, ")"
	}
	return st.String(), "", "", nil, ""
}

// Compose flattens terms into a single Seq, splicing nested Seqs. It
// counts the stages first, so the result is one allocation, and nil when
// there are none.
func Compose(ts ...Term) Seq {
	n := countStages(ts)
	if n == 0 {
		return nil
	}
	return appendStages(make(Seq, 0, n), ts)
}

func countStages(ts []Term) int {
	n := 0
	for _, t := range ts {
		if s, ok := t.(Seq); ok {
			n += countStages(s)
		} else {
			n++
		}
	}
	return n
}

func appendStages(out Seq, ts []Term) Seq {
	for _, t := range ts {
		if s, ok := t.(Seq); ok {
			out = appendStages(out, s)
		} else {
			out = append(out, t)
		}
	}
	return out
}

// Stages returns the flattened stage list of a term. A Seq that is already
// flat — what Compose builds — is returned as it is, without allocating,
// so the result is read-only.
func Stages(t Term) []Term {
	s, ok := t.(Seq)
	if !ok {
		return []Term{t}
	}
	return s.Flat()
}

// Flat is Stages of a Seq, which a caller holding one can ask without
// boxing it into a Term (an allocation).
func (s Seq) Flat() Seq {
	for _, sub := range s {
		if _, nested := sub.(Seq); nested {
			return Compose(s...)
		}
	}
	return s
}

// EqualTerms reports structural equality of two terms, comparing stages
// and operator identity.
func EqualTerms(a, b Term) bool {
	as, bs := Stages(a), Stages(b)
	if len(as) != len(bs) {
		return false
	}
	for i := range as {
		if !equalStage(as[i], bs[i]) {
			return false
		}
	}
	return true
}

// CommonEnds returns the length of the longest common prefix of two stage
// lists and of the longest common suffix of what that prefix leaves, under
// EqualTerms' stage equality (operator identity). A rewritten program and
// its source share everything outside the windows the rules touched.
func CommonEnds(as, bs []Term) (prefix, suffix int) {
	for prefix < len(as) && prefix < len(bs) && equalStage(as[prefix], bs[prefix]) {
		prefix++
	}
	for suffix < len(as)-prefix && suffix < len(bs)-prefix &&
		equalStage(as[len(as)-1-suffix], bs[len(bs)-1-suffix]) {
		suffix++
	}
	return prefix, suffix
}

func equalStage(a, b Term) bool {
	switch x := a.(type) {
	case Map:
		y, ok := b.(Map)
		return ok && x.F == y.F
	case MapIdx:
		y, ok := b.(MapIdx)
		return ok && x.F == y.F
	case Scan:
		y, ok := b.(Scan)
		return ok && x.Op == y.Op
	case ScanBal:
		y, ok := b.(ScanBal)
		return ok && x.Op == y.Op
	case Reduce:
		y, ok := b.(Reduce)
		return ok && x.Op == y.Op && x.All == y.All && x.Balanced == y.Balanced
	case Bcast:
		_, ok := b.(Bcast)
		return ok
	case Gather:
		_, ok := b.(Gather)
		return ok
	case Scatter:
		_, ok := b.(Scatter)
		return ok
	case Comcast:
		y, ok := b.(Comcast)
		return ok && x.Ops == y.Ops && x.CostOptimal == y.CostOptimal
	case Iter:
		y, ok := b.(Iter)
		return ok && x.Op == y.Op
	case Halo:
		y, ok := b.(Halo)
		return ok && EqualHoods(x.H, y.H)
	case AllGatherV:
		y, ok := b.(AllGatherV)
		return ok && equalInts(x.Counts, y.Counts)
	case ReduceScatterV:
		y, ok := b.(ReduceScatterV)
		return ok && x.Op == y.Op && equalInts(x.Counts, y.Counts)
	}
	return false
}
