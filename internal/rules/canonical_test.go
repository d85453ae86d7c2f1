package rules_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/lang"
	"repro/internal/rules"
	"repro/internal/term"
)

// parserSymbols is the symbol table the service and the chaos harness
// use: the standard built-ins plus the generator's inc.
func parserSymbols() *lang.Symbols {
	syms := lang.NewSymbols()
	syms.DefineFn(rules.IncFn)
	return syms
}

// TestCanonicalParseFixedPoint is the property the plan cache relies on:
// for every program over the generator grammar (all of which are
// expressible in the surface syntax), parsing and canonicalizing is a
// fixed point, and the reparsed term is structurally equal to the
// original.
func TestCanonicalParseFixedPoint(t *testing.T) {
	syms := parserSymbols()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		prog := rules.RandProgram(rng, 8)
		c1 := rules.Canonical(prog)
		reparsed, err := lang.Parse(c1, syms)
		if err != nil {
			t.Fatalf("trial %d: Canonical %q does not parse: %v", trial, c1, err)
		}
		if !term.EqualTerms(prog, reparsed) {
			t.Fatalf("trial %d: reparse of %q is not the original program (got %s)", trial, c1, reparsed)
		}
		c2 := rules.Canonical(term.Compose(reparsed))
		if c1 != c2 {
			t.Fatalf("trial %d: Canonical not a fixed point: %q -> %q", trial, c1, c2)
		}
	}
}

// TestCanonicalNormalizesSource: whitespace, comments, and newlines in
// the source must not show in the canonical form — two spellings of the
// same program share one cache key.
func TestCanonicalNormalizesSource(t *testing.T) {
	syms := parserSymbols()
	cases := []struct {
		src  string
		want string
	}{
		{"bcast;scan( + )", "bcast ; scan(+)"},
		{"  map   pair ;\n reduce(max) # trailing comment\n ; map pi_1", "map pair ; reduce(max) ; map pi_1"},
		{"gather ; scatter", "gather ; scatter"},
		{"allreduce(*)", "allreduce(*)"},
		{"map inc ; scan(-)", "map inc ; scan(-)"},
	}
	for _, c := range cases {
		parsed, err := lang.Parse(c.src, syms)
		if err != nil {
			t.Fatalf("parse %q: %v", c.src, err)
		}
		if got := rules.Canonical(term.Compose(parsed)); got != c.want {
			t.Errorf("Canonical(parse(%q)) = %q, want %q", c.src, got, c.want)
		}
	}
}

// canonicalOracle is Canonical as it was written before it rendered into
// one builder: a string per stage, joined. It is the reference Canonical is
// held to.
func canonicalOracle(s term.Seq) string {
	stages := term.Stages(s)
	if len(stages) == 0 {
		return "id"
	}
	parts := make([]string, len(stages))
	for i, st := range stages {
		switch x := st.(type) {
		case term.Map:
			parts[i] = "map " + x.F.Name
		case term.Scan:
			parts[i] = "scan(" + x.Op.Name + ")"
		case term.Reduce:
			name := "reduce"
			if x.All {
				name = "allreduce"
			}
			if x.Balanced {
				name += "_balanced"
			}
			parts[i] = name + "(" + x.Op.Name + ")"
		case term.Bcast:
			parts[i] = "bcast"
		case term.Gather:
			parts[i] = "gather"
		case term.Scatter:
			parts[i] = "scatter"
		default:
			parts[i] = st.String()
		}
	}
	return strings.Join(parts, " ; ")
}

// TestCanonicalMatchesOracle: on the generators' programs and on what the
// exhaustive engine rewrites them to — which brings in the balanced
// reductions, the balanced scan, comcast, iter and map# — Canonical renders
// what the joined rendering did.
func TestCanonicalMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	eng := rules.NewEngine()
	outside := 0
	for trial := 0; trial < 1500; trial++ {
		var prog term.Seq
		if trial%3 == 2 {
			prog = rules.RandSparseProgram(rng, 1+rng.Intn(6))
		} else {
			prog = rules.RandProgram(rng, 12)
		}
		opt, _ := eng.Optimize(prog)
		for _, s := range []term.Seq{prog, term.Compose(opt), {prog, term.Seq{}, opt}} {
			if got, want := rules.Canonical(s), canonicalOracle(s); got != want {
				t.Fatalf("Canonical(%v) = %q, want %q", s, got, want)
			}
		}
		for _, form := range []string{"scan_balanced(", "map# ", "iter(", "comcast("} {
			if strings.Contains(rules.Canonical(term.Compose(opt)), form) {
				outside++
				break
			}
		}
	}
	t.Logf("%d rewritten programs with a stage outside the grammar", outside)
	if outside == 0 {
		t.Fatal("no rewritten program has a stage outside the grammar: the corpus misses the String fallback")
	}
	// The right-hand sides' stages are written in pieces, which must be their
	// String: iter, comcast in both forms, the balanced scan and map#.
	for _, st := range []term.Term{
		term.Iter{Op: algebra.OpBR(algebra.Add)},
		term.Iter{Op: algebra.OpBSR2(algebra.Mul, algebra.Add)},
		term.Comcast{Ops: algebra.OpCompBS(algebra.Add)},
		term.Comcast{Ops: algebra.OpCompBSS2(algebra.Mul, algebra.Max), CostOptimal: true},
		term.ScanBal{Op: algebra.OpSS(algebra.Min)},
		term.MapIdx{F: term.RepeatFn(algebra.OpCompBSS(algebra.Add))},
	} {
		if got, want := rules.Canonical(term.Seq{st}), st.String(); got != want {
			t.Errorf("Canonical of %T renders %q, its String is %q", st, got, want)
		}
		s := term.Seq{term.Bcast{}, st, st}
		if got, want := rules.Canonical(s), canonicalOracle(s); got != want {
			t.Errorf("Canonical(%v) = %q, want %q", s, got, want)
		}
	}
}

// TestCanonicalAllocs pins the rendering of a program of grammar stages to
// the one allocation of its string.
func TestCanonicalAllocs(t *testing.T) {
	prog := term.Seq{
		term.Bcast{}, term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Max}, term.Reduce{Op: algebra.Left, All: true},
		term.Reduce{Op: algebra.Mul, All: true, Balanced: true}, term.Map{F: rules.IncFn}, term.Map{F: term.PairFn},
		term.Map{F: term.FirstFn}, term.Gather{}, term.Scatter{}, term.Scan{Op: algebra.Min},
	}
	var sink string
	if a := testing.AllocsPerRun(100, func() { sink = rules.Canonical(prog) }); a != 1 {
		t.Errorf("Canonical(%s) allocates %.0f times, want 1", sink, a)
	}
}

// TestCanonicalEmpty pins the rendering of the empty program (the cache
// never stores it — the server rejects empty programs — but the function
// must stay total and deterministic).
func TestCanonicalEmpty(t *testing.T) {
	if got := rules.Canonical(nil); got != "id" {
		t.Fatalf("Canonical(nil) = %q, want \"id\"", got)
	}
}

// TestCanonicalDistinguishesPrograms: structurally different programs
// must not collide on one key.
func TestCanonicalDistinguishesPrograms(t *testing.T) {
	syms := parserSymbols()
	progs := []string{
		"scan(+)", "scan(*)", "reduce(+)", "allreduce(+)",
		"bcast ; scan(+)", "scan(+) ; bcast", "map inc ; scan(+)",
	}
	seen := make(map[string]string)
	for _, src := range progs {
		parsed, err := lang.Parse(src, syms)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		key := rules.Canonical(term.Compose(parsed))
		if prev, dup := seen[key]; dup {
			t.Errorf("programs %q and %q collide on key %q", prev, src, key)
		}
		seen[key] = src
	}
}
