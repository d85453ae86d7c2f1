package rules

import (
	"fmt"
	"math/rand"

	"repro/internal/algebra"
	"repro/internal/term"
)

// VerifyConfig controls randomized semantic-equality checking.
type VerifyConfig struct {
	// Sizes are the machine sizes (list lengths) to check; nil means
	// {1, 2, 3, 4, 5, 6, 7, 8, 16} filtered by Pow2Only.
	Sizes []int
	// Trials is the number of random inputs per size (default 25).
	Trials int
	// Seed seeds the input generator.
	Seed int64
	// BlockWords > 1 additionally checks vector blocks of that size.
	BlockWords int
	// Pow2Only restricts the default sizes to powers of two (required
	// for the Local rules).
	Pow2Only bool
	// RelTol, when positive, compares numeric results with a relative
	// tolerance instead of exactly — needed when deep operator chains
	// push floating-point values beyond the exactly representable range
	// and reassociation flips low-order bits.
	RelTol float64
	// Gen, when non-nil, generates the random input list for a machine
	// size instead of the default small-integer scalars — needed when
	// the program's operators work on other value shapes (matrices,
	// tuples). BlockWords is ignored when Gen is set.
	Gen func(rng *rand.Rand, n int) []algebra.Value
}

func (c VerifyConfig) sizes() []int {
	if c.Sizes != nil {
		return c.Sizes
	}
	if c.Pow2Only {
		return []int{1, 2, 4, 8, 16}
	}
	return []int{1, 2, 3, 4, 5, 6, 7, 8, 16}
}

func (c VerifyConfig) trials() int {
	if c.Trials == 0 {
		return 25
	}
	return c.Trials
}

// VerifyEquivalence checks that lhs and rhs denote the same list function
// under the functional semantics, on random integral inputs, comparing
// modulo undetermined positions (the rules only promise the determined
// parts of their results, §3.5). It returns an error describing the first
// counterexample found, or nil.
func VerifyEquivalence(lhs, rhs term.Term, cfg VerifyConfig) error {
	cfg = shapeFor(lhs, cfg)
	return cfg.eachInput(func(s sample) error {
		return compareOn(lhs, rhs, s, cfg.RelTol)
	})
}

// sample is one drawn input list, with the coordinates a mismatch report
// quotes.
type sample struct {
	n, trial int
	in       []algebra.Value
}

// eachInput draws the config's inputs — per size and trial a list of
// small-integer scalars (or Gen's list), then with BlockWords > 1 a list
// of vector blocks — and calls f on each until it fails. The generator is
// seeded from the config alone, so the sequence of a config without a Gen
// is the same on every call.
func (c VerifyConfig) eachInput(f func(sample) error) error {
	rng := rand.New(rand.NewSource(c.Seed + 1))
	for _, n := range c.sizes() {
		for trial := 0; trial < c.trials(); trial++ {
			var in []algebra.Value
			if c.Gen != nil {
				in = c.Gen(rng, n)
			} else {
				in = make([]algebra.Value, n)
				for i := range in {
					in[i] = algebra.Scalar(float64(rng.Intn(13) - 6))
				}
			}
			if err := f(sample{n, trial, in}); err != nil {
				return err
			}
			if c.Gen == nil && c.BlockWords > 1 {
				vin := make([]algebra.Value, n)
				for i := range vin {
					v := make(algebra.Vec, c.BlockWords)
					for j := range v {
						v[j] = float64(rng.Intn(13) - 6)
					}
					vin[i] = v
				}
				if err := f(sample{n, trial, vin}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// shapeFor adapts a verification config to programs whose input shapes
// the default scalar generator cannot satisfy: a counts-carrying stage
// (reduce_scatterv, allgatherv) pins the machine size to len(counts)
// and demands vectors of the counts' shape, so the config is rewritten
// to that single size with a shape-matching generator. Explicit Gens
// are respected; programs without counts stages (halos run on any
// value at any size) pass through unchanged.
func shapeFor(lhs term.Term, cfg VerifyConfig) VerifyConfig {
	if cfg.Gen != nil {
		return cfg
	}
	counts, ok := progCounts(lhs)
	if !ok {
		return cfg
	}
	prog := term.Compose(lhs)
	cfg.Sizes = []int{len(counts)}
	cfg.Gen = func(rng *rand.Rand, n int) []algebra.Value {
		return SparseInputs(prog, rng, n)
	}
	return cfg
}

func compareOn(lhs, rhs term.Term, s sample, relTol float64) error {
	return mismatch(lhs, rhs, s, term.Eval(lhs, s.in), term.Eval(rhs, s.in), relTol)
}

// mismatch compares the two sides' results l and r on input s modulo
// undetermined positions, and describes the difference if there is one.
func mismatch(lhs, rhs term.Term, s sample, l, r []algebra.Value, relTol float64) error {
	equal := len(l) == len(r)
	if equal {
		for i := range l {
			if relTol > 0 {
				equal = algebra.EqualApproxModuloUndef(l[i], r[i], relTol)
			} else {
				equal = algebra.EqualModuloUndef(l[i], r[i])
			}
			if !equal {
				break
			}
		}
	}
	if !equal {
		return fmt.Errorf("rules: semantic mismatch at p=%d trial %d:\n  input: %v\n  lhs %s = %v\n  rhs %s = %v",
			s.n, s.trial, s.in, lhs, l, rhs, r)
	}
	return nil
}

// VerifyExhaustive checks the semantic equality of lhs and rhs on *every*
// input over a finite scalar domain, for every list length up to maxN —
// proof by enumeration rather than sampling. With domain {-1, 0, 1, 2}
// and maxN = 4 that is 4 + 16 + 64 + 256 inputs, enough to kill any
// counterexample expressible with four distinct values on four
// processors (the algebra of the rules is oblivious to magnitudes, so
// small domains are highly discriminating).
func VerifyExhaustive(lhs, rhs term.Term, domain []float64, maxN int) error {
	for n := 1; n <= maxN; n++ {
		in := make([]algebra.Value, n)
		var walk func(pos int) error
		walk = func(pos int) error {
			if pos == n {
				return compareOn(lhs, rhs, sample{n, -1, in}, 0)
			}
			for _, d := range domain {
				in[pos] = algebra.Scalar(d)
				if err := walk(pos + 1); err != nil {
					return err
				}
			}
			return nil
		}
		if err := walk(0); err != nil {
			return err
		}
	}
	return nil
}

// VerifyApplication checks one recorded rule application: the matched
// window and its replacement must be semantically equal. Local-class
// rules are checked on power-of-two sizes only.
func VerifyApplication(app Application, cfg VerifyConfig) error {
	cfg, _ = cfg.forRule(app.Rule)
	if err := VerifyEquivalence(term.Seq(app.Before), term.Seq(app.After), cfg); err != nil {
		return fmt.Errorf("rule %s: %w", app.Rule, err)
	}
	return nil
}

// forRule is the config an application of the named rule is checked
// under, and whether it differs from c: the Local rules compute f^(log p)
// by repeated squaring and hold on power-of-two machines only, so they move
// the check to the default power-of-two sizes.
func (c VerifyConfig) forRule(name string) (VerifyConfig, bool) {
	if r, ok := ByName(name); ok && r.Class == "Local" && (!c.Pow2Only || c.Sizes != nil) {
		c.Pow2Only = true
		c.Sizes = nil
		return c, true
	}
	return c, false
}
