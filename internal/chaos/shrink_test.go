package chaos_test

import (
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/chaos"
	"repro/internal/exper"
	"repro/internal/lang"
	"repro/internal/mpbackend"
	"repro/internal/rules"
	"repro/internal/term"
)

// TestShrinkMinimizes drives Shrink with a synthetic failure predicate —
// the case "fails" iff the program still contains a scan(+) and runs on
// at least three ranks — and checks the result is minimal: one stage,
// the smallest failing machine, the narrowest blocks.
func TestShrinkMinimizes(t *testing.T) {
	fails := func(c chaos.Case) bool {
		if c.P < 3 {
			return false
		}
		for _, s := range c.Prog {
			if sc, ok := s.(term.Scan); ok && sc.Op == algebra.Add {
				return true
			}
		}
		return false
	}
	start := chaos.Case{
		Prog: term.Seq{
			term.Bcast{},
			term.Scan{Op: algebra.Add},
			term.Gather{}, term.Scatter{},
			term.Reduce{Op: algebra.Mul, All: true},
			term.Map{F: term.PairFn}, term.Map{F: term.FirstFn},
		},
		P: 8, M: 4,
		Profile: chaos.MustByName("storm"),
		Seed:    42,
	}
	min := chaos.Shrink(start, fails)
	if !fails(min) {
		t.Fatalf("shrunk case no longer fails: %s", min)
	}
	if len(min.Prog) != 1 {
		t.Fatalf("expected a single-stage reproducer, got %s", min.Prog)
	}
	if min.P != 3 || min.M != 1 {
		t.Fatalf("expected p=3 m=1, got p=%d m=%d", min.P, min.M)
	}
}

// TestShrinkKeepsScatterFed checks the structural guard: shrinking never
// produces a scatter without the gather that feeds it its list.
func TestShrinkKeepsScatterFed(t *testing.T) {
	fails := func(c chaos.Case) bool {
		for _, s := range c.Prog {
			if _, ok := s.(term.Scatter); ok {
				return true
			}
		}
		return false
	}
	start := chaos.Case{
		Prog:    term.Seq{term.Bcast{}, term.Gather{}, term.Scatter{}, term.Bcast{}},
		P:       4,
		M:       1,
		Profile: chaos.MustByName("delay"),
	}
	min := chaos.Shrink(start, fails)
	want := term.Seq{term.Gather{}, term.Scatter{}}.String()
	if min.Prog.String() != want {
		t.Fatalf("expected %q, got %q", want, min.Prog)
	}
}

// TestReproRoundTrips checks that the reproducer command embeds the
// program in the surface syntax: the -prog string must parse back to the
// same program (IncFn registered, as collchaos does).
func TestReproRoundTrips(t *testing.T) {
	c := chaos.Case{
		Prog: term.Seq{
			term.Bcast{},
			term.Scan{Op: algebra.Left},
			term.Map{F: rules.IncFn},
			term.Gather{}, term.Scatter{},
			term.Reduce{Op: algebra.Max, All: true},
		},
		P: 6, M: 2,
		Profile: chaos.MustByName("loss"),
		Seed:    7,
	}
	repro := c.Repro()
	for _, want := range []string{"-p 6", "-m 2", "-profile loss", "-seed 7", "collchaos"} {
		if !strings.Contains(repro, want) {
			t.Fatalf("reproducer %q lacks %q", repro, want)
		}
	}
	syms := lang.NewSymbols()
	syms.DefineFn(rules.IncFn)
	parsed, err := lang.Parse(c.Prog.String(), syms)
	if err != nil {
		t.Fatalf("reproducer program %q does not parse: %v", c.Prog, err)
	}
	if parsed.String() != c.Prog.String() {
		t.Fatalf("parse round trip changed the program: %q -> %q", c.Prog, parsed)
	}
}

// TestShrinkSkipsIllTypedCandidates: a machine that fails every case
// containing reduce(op_sr2(*,+)), seen through Sweep's predicate, shrinks
// the SR2-Reduction right-hand side to a case the semantics evaluates —
// not to the bare reduction on p = 2, which no machine is wrong about
// because term.Eval cannot evaluate it on blocks.
func TestShrinkSkipsIllTypedCandidates(t *testing.T) {
	reduce := term.Reduce{Op: algebra.OpSR2(algebra.Mul, algebra.Add)}
	fails := func(c chaos.Case) bool {
		if errors.Is(chaos.Check(c), chaos.ErrIllTyped) {
			return false
		}
		for _, s := range c.Prog {
			if s == term.Term(reduce) {
				return true
			}
		}
		return false
	}
	start := chaos.Case{
		Prog: term.Seq{term.Map{F: term.PairFn}, reduce, term.Map{F: term.FirstFn}},
		P:    6, M: 4,
		Profile: chaos.MustByName("delay"),
	}
	min := chaos.Shrink(start, fails)
	if err := chaos.Check(chaos.Case{Prog: term.Seq{reduce}, P: 2, M: 1}); !errors.Is(err, chaos.ErrIllTyped) {
		t.Errorf("the bare reduction on p=2: Check says %v, want ErrIllTyped", err)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("shrunk to %s, which the semantics cannot evaluate: %v", min, r)
			}
		}()
		term.Eval(min.Prog, mpbackend.ConformanceInputs(min.Prog, min.P, min.M))
	}()
	if want := "map pair ; reduce(op_sr2(*,+))"; min.Prog.String() != want || min.P != 2 || min.M != 1 {
		t.Errorf("shrunk to %s, want %s on p=2 m=1", min, want)
	}
}

// TestReproReplays: the replay line of either side of every rule is a
// -prog line whose program lang reads back (with the functions collchaos
// defines), or, for a program over a derived operator, which lang cannot
// read, the rule sweep.
func TestReproReplays(t *testing.T) {
	syms := lang.NewSymbols()
	syms.DefineFn(rules.IncFn)
	syms.DefineFn(rules.IncTupFn)
	ruleLines := 0
	for _, pat := range append(exper.Patterns(), exper.Extensions()...) {
		lhs := term.Compose(pat.LHS.Term())
		for _, p := range pat.Sizes() {
			rhs, err := exper.ApplyRule(pat.Rule, lhs, p)
			if err != nil {
				t.Fatal(err)
			}
			for _, prog := range []term.Seq{lhs, term.Compose(rhs)} {
				c := chaos.Case{Prog: prog, P: p, M: 4, Profile: chaos.MustByName("storm"), Seed: 3}
				repro := c.Repro()
				if strings.HasPrefix(repro, "go run ./cmd/collchaos -rules -p ") {
					ruleLines++
					continue
				}
				src, ok := strings.CutPrefix(repro, "go run ./cmd/collchaos -prog ")
				if !ok {
					t.Fatalf("%s: replay line %q is neither -prog nor -rules", c, repro)
				}
				quoted, err := strconv.QuotedPrefix(src)
				if err == nil {
					src, err = strconv.Unquote(quoted)
				}
				if err == nil {
					_, err = lang.Parse(src, syms)
				}
				if err != nil {
					t.Errorf("%s: replay line %q does not replay: %v", c, repro, err)
				}
			}
		}
	}
	if ruleLines == 0 {
		t.Error("no rule side printed a -rules line, yet lang reads no derived operator")
	}
}
