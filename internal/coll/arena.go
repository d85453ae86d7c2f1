package coll

import "repro/internal/algebra"

// toWork converts a collective's input into the working representation
// for operator op: a Tuple of equal-length Vec components flattens into
// one arena-backed buffer (a copy — the caller's input stays read-only)
// the flat kernels combine without boxing. The returned flag reports
// whether the value is scratch this rank owns, i.e. whether an in-place
// combine may target it. Values the kernels cannot handle pass through
// unchanged, keeping the reference semantics.
func toWork(ar *algebra.Arena, op *algebra.Op, x Value) (Value, bool) {
	if op.FlatFn == nil {
		return x, false
	}
	t, ok := x.(algebra.Tuple)
	if !ok || len(t) != op.Arity {
		return x, false
	}
	w, m, ok := algebra.CanFlatten(t)
	if !ok {
		return x, false
	}
	return ar.Flat(w, m).FlattenInto(t), true
}

// fromWork converts a working value back to the caller-facing boxed form
// at the collective's return boundary. The boxed components are views
// into the working buffer, not copies; they stay valid until the backing
// machine's next run (see the ownership rules in docs/PERF.md).
func fromWork(v Value) Value { return algebra.Boxed(v) }

// scratchLike returns an arena destination shaped like proto, or nil for
// shapes the kernels do not handle (ApplyInto then falls back to the
// allocating reference path, exactly as before this optimization).
func scratchLike(ar *algebra.Arena, proto Value) Value {
	switch v := proto.(type) {
	case algebra.Vec:
		return ar.Vec(len(v))
	case *algebra.FlatTuple:
		return ar.Flat(v.W, v.M())
	}
	return nil
}

// dstFor picks the destination for combining into cur: cur itself when it
// is scratch this rank owns (and has not been shipped), a fresh arena
// buffer shaped like proto otherwise.
func dstFor(ar *algebra.Arena, cur Value, owned bool, proto Value) Value {
	if owned {
		return cur
	}
	return scratchLike(ar, proto)
}

// dstForOwned extends dstFor with an adoptable right operand: when this
// rank does not own cur but the link moved the received value's ownership
// here, combining targets the received value.
func dstForOwned(ar *algebra.Arena, cur Value, curOwned bool, recv Value, adopted bool) Value {
	if adopted && !curOwned {
		return recv
	}
	return dstFor(ar, cur, curOwned, recv)
}
