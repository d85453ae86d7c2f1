package rules

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/term"
)

// TestApplyIsF: term.Apply, the one way the evaluator and every rank apply
// a local function, returns F(x) bit for bit and leaves x as it was, for
// the duplications, π₁, the rules' functions and a fused map, on every
// shape of input and every kind of store. A flat tuple stands for the
// boxed tuple it represents, so F meets its boxed form. All of a store's
// results are drawn before any is compared, so a buffer handed out twice,
// or one of a warm store that Into leaves partly unwritten, shows.
func TestApplyIsF(t *testing.T) {
	fused, ok := MMLocal.Try([]term.Term{term.Map{F: IncTupFn}, term.Map{F: term.PairFn}}, Env{})
	if !ok {
		t.Fatal("MM-Local did not fuse map inc_t ; map pair")
	}
	fns := []*term.Fn{term.PairFn, term.TripleFn, term.QuadrupleFn, term.FirstFn,
		IncFn, IncTupFn, RegroupFn(2, 2), EachFn(IncTupFn), fused[0].(term.Map).F}

	// inputs returns one value of every shape, its words scaled by k.
	inputs := func(k float64) []algebra.Value {
		vec := func(xs ...float64) algebra.Vec {
			for i := range xs {
				xs[i] *= k
			}
			return xs
		}
		blocks := algebra.Tuple{vec(1, 2, 3), vec(4, 5, 6), vec(7, 8, 9), vec(-1, 0.5, 2)}
		flat := algebra.NewFlatTuple(4, 3)
		flat.FlattenInto(blocks)
		return []algebra.Value{
			algebra.Scalar(3 * k),
			vec(1, -2, 0.25),
			algebra.Vec{},
			blocks,
			algebra.Tuple{algebra.Tuple{vec(1), algebra.Scalar(2 * k)}, vec(3), algebra.Undef{}, algebra.Tuple{vec(4, 5), vec(6, 7)}},
			flat,
			algebra.Undef{},
		}
	}

	warm := func(st term.Store, reset func()) term.Store {
		for _, f := range fns {
			for _, x := range inputs(-7) {
				func() {
					defer func() { _ = recover() }()
					term.Apply(st, f, x)
				}()
			}
		}
		reset()
		return st
	}
	warmArena, scratch := algebra.NewArena(), new(term.Scratch)
	stores := []struct {
		name string
		st   term.Store
	}{
		{"nil arena", (*algebra.Arena)(nil)},
		{"fresh arena", algebra.NewArena()},
		{"warm arena", warm(warmArena, warmArena.Reset)},
		{"scratch", warm(scratch, scratch.Reset)},
	}
	for _, s := range stores {
		xs := inputs(1)
		type result struct {
			f          *term.Fn
			x, copyOfX algebra.Value
			got, want  algebra.Value
			gotPanic   bool
		}
		var results []result
		for _, f := range fns {
			for _, x := range xs {
				r := result{f: f, x: x, copyOfX: algebra.CloneValue(x)}
				want, wantPanic := call(func() algebra.Value { return f.F(algebra.Boxed(x)) })
				r.got, r.gotPanic = call(func() algebra.Value { return term.Apply(s.st, f, x) })
				if wantPanic {
					if !r.gotPanic {
						t.Errorf("%s: %s(%v): F panics, Apply returned %v", s.name, f, x, r.got)
					}
					continue
				}
				r.want = want
				results = append(results, r)
			}
		}
		for _, r := range results {
			if r.gotPanic {
				t.Errorf("%s: %s(%v): Apply panics, F returned %v", s.name, r.f, r.copyOfX, r.want)
				continue
			}
			if !identicalValue(r.got, r.want) {
				t.Errorf("%s: %s(%v) = %v, F gives %v", s.name, r.f, r.copyOfX, r.got, r.want)
			}
			if !identicalValue(r.x, r.copyOfX) {
				t.Errorf("%s: %s wrote into its argument: %v, was %v", s.name, r.f, r.x, r.copyOfX)
			}
		}
	}
}

// call is f's result, or that it panicked.
func call(f func() algebra.Value) (v algebra.Value, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
		}
	}()
	return f(), false
}
