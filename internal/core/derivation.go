package core

import (
	"fmt"
	"strings"

	"repro/internal/rules"
)

// Derivation is an interactive program-design session in the style of §5:
// start from a specification, inspect which rules apply, apply chosen
// ones (by name, optionally at a position), undo, and finally render the
// whole derivation as the paper renders PolyEval_1 → PolyEval_3. Unlike
// Program.Optimize, which commits to the engine's greedy choice, a
// Derivation keeps the programmer in charge — the paper's "methodical use
// of the presented optimization rules".
type Derivation struct {
	mach    Machine
	env     rules.Env
	history []Program
	steps   []rules.Application
}

// NewDerivation starts a derivation from the specification program,
// targeting machine m (used for cost estimates and the Local rules'
// power-of-two requirement).
func NewDerivation(spec Program, m Machine) *Derivation {
	env := rules.DefaultEnv()
	env.P = m.P
	return &Derivation{
		mach:    m,
		env:     env,
		history: []Program{spec},
	}
}

// Current is the program as derived so far.
func (d *Derivation) Current() Program {
	return d.history[len(d.history)-1]
}

// Options lists the rule applications available on the current program,
// with cost estimates for the target machine.
func (d *Derivation) Options() []rules.Application {
	return d.engine().Applicable(d.Current().Term())
}

func (d *Derivation) engine() *rules.Engine {
	eng := rules.NewCostGuidedEngine(d.mach.costParams())
	eng.Env = d.env
	return eng
}

// Apply applies the named rule at the first position it matches (or at
// the given stage position if pos ≥ 0). Any rule rules.ByName knows may
// be named, not only those on the Options menu. It verifies the step's
// semantic equality on random inputs before committing and returns the
// recorded application.
func (d *Derivation) Apply(ruleName string, pos int) (rules.Application, error) {
	if _, ok := rules.ByName(ruleName); !ok {
		return rules.Application{}, fmt.Errorf("core: unknown rule %q", ruleName)
	}
	eng := d.engine()
	eng.Rules = rules.AllWithExtensions()
	for _, app := range eng.Applicable(d.Current().Term()) {
		if app.Rule != ruleName || (pos >= 0 && app.Pos != pos) {
			continue
		}
		if err := rules.VerifyApplication(app, rules.VerifyConfig{Seed: 17, BlockWords: 3}); err != nil {
			return rules.Application{}, fmt.Errorf("core: rule %s failed verification: %w", ruleName, err)
		}
		d.history = append(d.history, FromTerm(app.Rewrite(d.Current().Stages())))
		d.steps = append(d.steps, app)
		return app, nil
	}
	if pos >= 0 {
		return rules.Application{}, fmt.Errorf("core: rule %s does not match at stage %d", ruleName, pos)
	}
	return rules.Application{}, fmt.Errorf("core: rule %s does not match anywhere in %s", ruleName, d.Current())
}

// Undo reverts the last applied step; it reports whether there was one.
func (d *Derivation) Undo() bool {
	if len(d.steps) == 0 {
		return false
	}
	d.history = d.history[:len(d.history)-1]
	d.steps = d.steps[:len(d.steps)-1]
	return true
}

// Steps returns the applications performed so far, in order.
func (d *Derivation) Steps() []rules.Application {
	return append([]rules.Application(nil), d.steps...)
}

// Script renders the derivation the way §5 presents PolyEval: the
// numbered programs interleaved with the rules that connect them, with
// cost estimates for the target machine.
func (d *Derivation) Script() string {
	var b strings.Builder
	for i, prog := range d.history {
		fmt.Fprintf(&b, "P_%d = %s", i+1, prog)
		fmt.Fprintf(&b, "   (estimate %.0f)\n", prog.Estimate(d.mach))
		if i < len(d.steps) {
			fmt.Fprintf(&b, "    |  %s  { %s }\n", d.steps[i].Rule, ruleCond(d.steps[i].Rule))
			fmt.Fprintf(&b, "    v\n")
		}
	}
	return b.String()
}

func ruleCond(name string) string {
	if r, ok := rules.ByName(name); ok {
		return r.Cond
	}
	return "—"
}
