package term_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/rules"
	"repro/internal/term"
)

// composeOracle is Compose as it was written before it counted first: a
// recursive append. It is the reference the one-allocation Compose is held
// to.
func composeOracle(ts ...term.Term) term.Seq {
	var out term.Seq
	for _, t := range ts {
		if s, ok := t.(term.Seq); ok {
			out = append(out, composeOracle(s...)...)
		} else {
			out = append(out, t)
		}
	}
	return out
}

// nest splits stages into randomly nested Seqs, empty ones included.
func nest(rng *rand.Rand, stages []term.Term, depth int) []term.Term {
	var out []term.Term
	for len(stages) > 0 {
		switch k := rng.Intn(len(stages) + 1); {
		case depth < 4 && rng.Intn(3) == 0:
			out = append(out, term.Seq(nest(rng, stages[:k], depth+1)))
			stages = stages[k:]
		case rng.Intn(8) == 0:
			out = append(out, term.Seq{})
		default:
			out = append(out, stages[0])
			stages = stages[1:]
		}
	}
	return out
}

// TestComposeMatchesOracle: on nested spellings of the generators'
// programs, Compose returns what the recursive append returned — nil
// exactly when there is no stage.
func TestComposeMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 2000; trial++ {
		var prog term.Seq
		if trial%4 == 3 {
			prog = rules.RandSparseProgram(rng, 1+rng.Intn(6))
		} else {
			prog = rules.RandProgram(rng, 12)
		}
		if trial%50 == 0 {
			prog = nil
		}
		ts := nest(rng, prog, 0)
		got, want := term.Compose(ts...), composeOracle(ts...)
		if !reflect.DeepEqual(got, want) || (got == nil) != (want == nil) {
			t.Fatalf("Compose(%v) = %#v, want %#v", ts, got, want)
		}
	}
}

// TestComposeAllocs pins Compose to the one allocation of its result, and
// to none when there is no stage to hold.
func TestComposeAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nested := term.Term(term.Seq(nest(rng, rules.RandProgram(rng, 12), 0)))
	empty := term.Term(term.Seq{term.Seq{}, term.Seq{term.Seq{}}})
	var sink term.Seq
	if a := testing.AllocsPerRun(100, func() { sink = term.Compose(nested) }); a != 1 {
		t.Errorf("Compose of %d stages allocates %.0f times, want 1", len(sink), a)
	}
	if a := testing.AllocsPerRun(100, func() { sink = term.Compose(empty) }); a != 0 || sink != nil {
		t.Errorf("Compose of no stage allocates %.0f times and returns %#v, want 0 and nil", a, sink)
	}
}
