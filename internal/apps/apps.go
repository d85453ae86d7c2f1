// Package apps implements the kind of data-parallel applications the
// paper's introduction motivates — algorithms expressed exclusively in
// terms of collective operations, "without messing around with individual
// send-receive statements" (§1): maximum segment sum, streaming
// statistics, histogramming, and a sample sort. Each application runs on
// the virtual machine through the coll collectives and is verified
// against a sequential reference in the package tests.
//
// Several of the applications are showcases for the paper's central
// auxiliary-variable technique: the quantity of interest is not a
// homomorphism by itself, but becomes one when tupled with helper values
// (MSS needs a 4-tuple, variance a 3-tuple) — the same trick the
// optimization rules use with pair/triple/quadruple.
package apps

import (
	"math"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/machine"
)

// Machine bundles the virtual-machine parameters the applications run on.
type Machine struct {
	// P is the number of processors.
	P int
	// Ts and Tw are the communication cost parameters.
	Ts, Tw float64
}

func (m Machine) virtual() *machine.Machine {
	return machine.New(m.P, machine.Params{Ts: m.Ts, Tw: m.Tw})
}

// chunk splits xs into p nearly equal contiguous blocks.
func chunk[T any](xs []T, p int) [][]T {
	out := make([][]T, p)
	per := len(xs) / p
	rem := len(xs) % p
	off := 0
	for i := 0; i < p; i++ {
		sz := per
		if i < rem {
			sz++
		}
		out[i] = xs[off : off+sz]
		off += sz
	}
	return out
}

// MSS computes the maximum segment sum of xs — the largest sum of any
// contiguous non-empty segment — with one allreduce over 4-tuples.
//
// The segment sum is the classic example of the auxiliary-variable
// technique: (mss) alone is not combinable across a block boundary, but
// the quadruple (mss, maximum prefix sum, maximum suffix sum, total) is,
// under the associative (non-commutative) operator
//
//	m  = max(m1, m2, t1 ⊕ p2)   p = max(p1, s1 + p2)
//	t  = max(t2, t1 + s2)       s = s1 + s2
//
// Every processor folds its local block into a quadruple, one allreduce
// combines them, and the first component is the answer.
func MSS(mach Machine, xs []float64) (float64, machine.Result) {
	if len(xs) == 0 {
		panic("apps: MSS of an empty sequence")
	}
	blocks := chunk(xs, mach.P)
	op := mssOp()
	results := make([]float64, mach.P)
	res := mach.virtual().Run(func(c *machine.Proc) {
		v := mssLocal(blocks[c.Rank()])
		c.Compute(float64(4 * len(blocks[c.Rank()])))
		v = coll.AllReduce(c, op, v)
		results[c.Rank()] = float64(v.(algebra.Tuple)[0].(algebra.Scalar))
	})
	return results[0], res
}

// mssLocal folds a block into its (mss, mps, mts, total) quadruple. An
// empty block is the operator's unit.
func mssLocal(block []float64) algebra.Value {
	negInf := math.Inf(-1)
	m, p, t, s := negInf, negInf, negInf, 0.0
	for _, x := range block {
		// Sequential Kadane-style update, maintaining all four values.
		t = math.Max(t+x, x)
		m = math.Max(m, t)
		s += x
		p = math.Max(p, s)
	}
	// t currently holds the best suffix ending at the last element; the
	// true maximum suffix sum needs a second pass for clarity.
	t = negInf
	acc := 0.0
	for i := len(block) - 1; i >= 0; i-- {
		acc += block[i]
		t = math.Max(t, acc)
	}
	return algebra.Tuple{
		algebra.Scalar(m), algebra.Scalar(p), algebra.Scalar(t), algebra.Scalar(s),
	}
}

// mssOp is the 4-tuple combine; eight elementary operations per element.
func mssOp() *algebra.Op {
	sc := func(v algebra.Value) float64 { return float64(v.(algebra.Scalar)) }
	return &algebra.Op{
		Name:  "op_mss",
		Cost:  8,
		Arity: 4,
		Fn: func(a, b algebra.Value) algebra.Value {
			ta, tb := a.(algebra.Tuple), b.(algebra.Tuple)
			m1, p1, t1, s1 := sc(ta[0]), sc(ta[1]), sc(ta[2]), sc(ta[3])
			m2, p2, t2, s2 := sc(tb[0]), sc(tb[1]), sc(tb[2]), sc(tb[3])
			return algebra.Tuple{
				algebra.Scalar(math.Max(math.Max(m1, m2), t1+p2)),
				algebra.Scalar(math.Max(p1, s1+p2)),
				algebra.Scalar(math.Max(t2, t1+s2)),
				algebra.Scalar(s1 + s2),
			}
		},
	}
}

// SeqMSS is the quadratic sequential reference for MSS.
func SeqMSS(xs []float64) float64 {
	best := math.Inf(-1)
	for i := range xs {
		sum := 0.0
		for j := i; j < len(xs); j++ {
			sum += xs[j]
			if sum > best {
				best = sum
			}
		}
	}
	return best
}

// Stats holds streaming statistics of a distributed sequence.
type Stats struct {
	N        int
	Sum      float64
	Mean     float64
	Variance float64 // population variance
	Min, Max float64
}

// Statistics computes count, sum, mean, population variance, min and max
// of the distributed sequence with a single allreduce over the 5-tuple
// (n, Σx, Σx², min, max) — the auxiliary-variable technique again: the
// variance is not combinable, the tuple is.
func Statistics(mach Machine, xs []float64) (Stats, machine.Result) {
	blocks := chunk(xs, mach.P)
	op := &algebra.Op{
		Name:  "op_stats",
		Cost:  5,
		Arity: 5,
		Fn: func(a, b algebra.Value) algebra.Value {
			ta, tb := a.(algebra.Tuple), b.(algebra.Tuple)
			sc := func(v algebra.Value) float64 { return float64(v.(algebra.Scalar)) }
			return algebra.Tuple{
				algebra.Scalar(sc(ta[0]) + sc(tb[0])),
				algebra.Scalar(sc(ta[1]) + sc(tb[1])),
				algebra.Scalar(sc(ta[2]) + sc(tb[2])),
				algebra.Scalar(math.Min(sc(ta[3]), sc(tb[3]))),
				algebra.Scalar(math.Max(sc(ta[4]), sc(tb[4]))),
			}
		},
	}
	out := make([]algebra.Tuple, mach.P)
	res := mach.virtual().Run(func(c *machine.Proc) {
		block := blocks[c.Rank()]
		n, sum, sq := 0.0, 0.0, 0.0
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, x := range block {
			n++
			sum += x
			sq += x * x
			mn = math.Min(mn, x)
			mx = math.Max(mx, x)
		}
		c.Compute(float64(3 * len(block)))
		v := coll.AllReduce(c, op, algebra.Tuple{
			algebra.Scalar(n), algebra.Scalar(sum), algebra.Scalar(sq),
			algebra.Scalar(mn), algebra.Scalar(mx),
		})
		out[c.Rank()] = v.(algebra.Tuple)
	})
	t := out[0]
	sc := func(i int) float64 { return float64(t[i].(algebra.Scalar)) }
	n := sc(0)
	st := Stats{N: int(n), Sum: sc(1), Min: sc(3), Max: sc(4)}
	if n > 0 {
		st.Mean = st.Sum / n
		st.Variance = sc(2)/n - st.Mean*st.Mean
	}
	return st, res
}

// Histogram bins the distributed sequence into buckets of width
// (hi−lo)/bins over [lo, hi) and returns the global counts, computed with
// one vector allreduce. Out-of-range values clamp into the edge bins.
func Histogram(mach Machine, xs []float64, lo, hi float64, bins int) ([]int, machine.Result) {
	if bins < 1 || hi <= lo {
		panic("apps: bad histogram shape")
	}
	blocks := chunk(xs, mach.P)
	out := make([]algebra.Value, mach.P)
	res := mach.virtual().Run(func(c *machine.Proc) {
		counts := make(algebra.Vec, bins)
		for _, x := range blocks[c.Rank()] {
			b := int((x - lo) / (hi - lo) * float64(bins))
			if b < 0 {
				b = 0
			}
			if b >= bins {
				b = bins - 1
			}
			counts[b]++
		}
		c.Compute(float64(len(blocks[c.Rank()])))
		out[c.Rank()] = coll.AllReduce(c, algebra.Add, counts)
	})
	vec := out[0].(algebra.Vec)
	counts := make([]int, bins)
	for i, v := range vec {
		counts[i] = int(v)
	}
	return counts, res
}
