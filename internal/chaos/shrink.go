package chaos

import (
	"fmt"

	"repro/internal/term"
)

// Seed shrinking: when a randomized sweep finds a failing (program, size,
// profile, seed) combination, the raw reproducer is usually a six-stage
// soup on eight ranks. Shrink cuts it down to a minimal case — fewest
// stages, then smallest machine, then narrowest blocks — that still
// fails, and Repro renders it as a collchaos command line.

// Case is one chaos execution: a stage program on P ranks with M-word
// blocks, under a fault profile and seed. Tol is the relative tolerance of
// the comparison with the semantics: 0, exact, except where random
// programs leave the exactly representable range (2^53).
type Case struct {
	Prog    term.Seq
	P, M    int
	Profile Profile
	Seed    int64
	Tol     float64
}

func (c Case) String() string {
	return fmt.Sprintf("%s on p=%d m=%d under %s/seed=%d", c.Prog, c.P, c.M, c.Profile.Name, c.Seed)
}

// Repro renders the case as a collchaos invocation that replays it: the
// -prog line when the program reads back through lang, else the rule sweep
// at the case's size, block length, profile and seed, since a program lang
// cannot read (one over a derived operator) comes from a rule's side.
func (c Case) Repro() string {
	if _, ok := c.params(); !ok {
		return fmt.Sprintf("go run ./cmd/collchaos -rules -p %d -m %d -profile %s -seed %d",
			c.P, c.M, c.Profile.Name, c.Seed)
	}
	return fmt.Sprintf("go run ./cmd/collchaos -prog %q -p %d -m %d -profile %s -seed %d",
		c.Prog.String(), c.P, c.M, c.Profile.Name, c.Seed)
}

// Shrink minimizes a failing case against the predicate fails (which must
// be true for c itself): it greedily removes stages — single stages and
// adjacent pairs, so gather;scatter round trips vanish together — then
// walks P and M down, keeping every change that still fails, until a
// fixpoint. The result fails, and no single removal or reduction of it
// does.
func Shrink(c Case, fails func(Case) bool) Case {
	if !fails(c) {
		return c
	}
	for changed := true; changed; {
		changed = false
		for width := 2; width >= 1; width-- {
			for i := 0; i+width <= len(c.Prog); i++ {
				cand := c
				cand.Prog = cut(c.Prog, i, width)
				if len(cand.Prog) == 0 || !wellFormed(cand.Prog) {
					continue
				}
				if fails(cand) {
					c = cand
					changed = true
					i--
				}
			}
		}
		for p := 2; p < c.P; p++ {
			if pin, ok := pinnedP(c.Prog); ok && pin != p {
				// Counts vectors and per-rank neighborhoods pin the
				// machine size; smaller machines cannot even run the
				// program.
				continue
			}
			cand := c
			cand.P = p
			if fails(cand) {
				c = cand
				changed = true
				break
			}
		}
		for m := 1; m < c.M; m++ {
			cand := c
			cand.M = m
			if fails(cand) {
				c = cand
				changed = true
				break
			}
		}
	}
	return c
}

// cut returns prog with width stages removed at i.
func cut(prog term.Seq, i, width int) term.Seq {
	out := make(term.Seq, 0, len(prog)-width)
	out = append(out, prog[:i]...)
	return append(out, prog[i+width:]...)
}

// wellFormed rejects programs a removal made structurally invalid: a
// scatter must still be fed a list, i.e. immediately follow a gather
// (the only list-producing stage the generator emits), and every
// machine-size-pinning stage (counts vectors, per-rank neighborhoods)
// must agree on the size it pins.
func wellFormed(prog term.Seq) bool {
	pin := 0
	for i, s := range prog {
		if _, ok := s.(term.Scatter); ok {
			if i == 0 {
				return false
			}
			if _, ok := prog[i-1].(term.Gather); !ok {
				return false
			}
		}
		if q, ok := stagePin(s); ok {
			if pin != 0 && q != pin {
				return false
			}
			pin = q
		}
	}
	return true
}

// stagePin returns the machine size a stage pins, if any.
func stagePin(s term.Term) (int, bool) {
	if c, ok := term.CountsStage(s); ok {
		return len(c), true
	}
	if h, ok := s.(term.Halo); ok && !h.H.Isomorphic() {
		return len(h.H.Lists), true
	}
	return 0, false
}

// pinnedP returns the machine size the whole program pins, if any.
func pinnedP(prog term.Seq) (int, bool) {
	for _, s := range prog {
		if q, ok := stagePin(s); ok {
			return q, true
		}
	}
	return 0, false
}
