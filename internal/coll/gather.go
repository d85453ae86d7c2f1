package coll

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/algebra"
)

// ValueList is an ordered slice of per-processor values shipped as one
// message; it is itself a Value whose word count is the sum of its
// members'. It is exported so transports outside this package — the
// multi-process wire codec in particular — can serialize and reconstruct
// it.
type ValueList []Value

// Words sums the members' word counts.
func (l ValueList) Words() int {
	n := 0
	for _, v := range l {
		n += v.Words()
	}
	return n
}

func (l ValueList) String() string {
	parts := make([]string, len(l))
	for i, v := range l {
		parts[i] = v.String()
	}
	return "list[" + strings.Join(parts, " ") + "]"
}

// Gather collects every member's value on the root, in rank order: rank
// r contributes x_r and the root returns [x_0, …, x_{p-1}]; every other
// member returns nil. It is Reduce over list concatenation, whose
// mirrored binomial tree leaves the list in virtual-rank order on the
// root. A flat tuple x is gathered boxed, since the list nests it.
func Gather(c Comm, root int, x Value) []Value {
	acc := Reduce(c, root, concat, ValueList{algebra.Boxed(x)})
	if c.Rank() != root {
		return nil
	}
	l, v0 := acc.(ValueList), c.Size()-root // rank r's value is l[(r + v0) mod p]
	return append(slices.Clone(l[v0:]), l[:v0]...)
}

// concat concatenates two lists into a new one, at no charge.
var concat = &algebra.Op{
	Name:  "++",
	Arity: 1,
	Fn: func(a, b Value) Value {
		l := a.(ValueList)
		return append(l[:len(l):len(l)], b.(ValueList)...)
	},
}

// Scatter distributes the root's per-member slices: the root supplies xs
// with one value per member, and every member returns its own xs[rank].
// Implemented as the top-down binomial tree: in descending phase k, each
// chunk holder at a virtual rank divisible by 2^(k+1) hands the upper
// half of its chunk to virtual rank +2^k.
func Scatter(c Comm, root int, xs []Value) Value {
	tag := c.NextTag()
	n := c.Size()
	vr := (c.Rank() - root + n) % n
	var hold ValueList
	if vr == 0 {
		if len(xs) != n {
			panic(fmt.Sprintf("coll: Scatter root got %d values for %d members", len(xs), n))
		}
		// Rotate into virtual-rank order so chunks are contiguous.
		hold = make(ValueList, n)
		for r, x := range xs {
			hold[(r-root+n)%n] = x
		}
	}
	have := vr == 0
	span := n // virtual ranks covered by the held chunk [vr, vr+span)
	for k := log2Ceil(n) - 1; k >= 0; k-- {
		bit := 1 << k
		switch {
		case have && vr%(bit<<1) == 0 && span > bit && vr+bit < n:
			upper := hold[bit:]
			dst := (vr + bit + root) % n
			c.Send(dst, upper, tag)
			hold = hold[:bit]
			span = bit
		case !have && vr%(bit<<1) == bit:
			src := (vr - bit + root) % n
			hold = c.Recv(src, tag).(ValueList)
			have = true
			span = len(hold)
		}
	}
	return hold[0]
}

// AllGather delivers every member's value to every member, in rank order,
// using the fold/butterfly scheme of AllReduce with concatenation as the
// combine.
func AllGather(c Comm, x Value) []Value { return AllReduce(c, concat, ValueList{x}).(ValueList) }

// Iter applies the Local-rule schema of §3.5 on rank 0: op.F iterated
// ceil(log2 p) times on the first member's working state, all other
// members idle and undetermined:
//
//	iter f [x, _, …, _] = [f^(log p) x, _, …, _]
//
// No communication happens at all — that is the whole point of the Local
// rules. The function returns the projected first component on rank 0 and
// Undef elsewhere.
func Iter(c Comm, op *algebra.IterOp, x Value) Value {
	if c.Rank() != 0 {
		return algebra.Undef{}
	}
	n := log2Ceil(c.Size())
	w := op.IterateIn(c.Caps().Arena, nil, n, x)
	for range n {
		c.Compute(op.Charge(w))
	}
	return algebra.First(w)
}

// pairValue packs two small integers into a pair of scalars (used by
// Split to allgather color/key).
func pairValue(a, b int) Value {
	return algebra.Tuple{algebra.Scalar(a), algebra.Scalar(b)}
}

// pairFields unpacks a pairValue.
func pairFields(v Value) (a, b int) {
	t := v.(algebra.Tuple)
	return int(t[0].(algebra.Scalar)), int(t[1].(algebra.Scalar))
}
