package rules

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/term"
)

// Verifier checks derivations — a program, its rewriting and the rule
// applications between them — and remembers what does not depend on the
// program: the verdict of a rule instance and the inputs a config draws.
// The zero value is ready; a Verifier is safe for concurrent use, and a
// long-lived owner (the planner of package serve) keeps one so that a rule
// instance is evaluated once however many programs contain it.
type Verifier struct {
	mu sync.Mutex
	// instances memoizes instance verdicts, failures included.
	instances map[instanceKey]error
	// inputs holds the input lists of the configs seen, drawn once each.
	inputs map[configKey][]sample

	derivations, zeroApplication atomic.Uint64
	instanceChecks, instanceHits atomic.Uint64
	tailsOnce, tailsTwice        atomic.Uint64
}

// Bounds of the two tables. Halo offsets and allgatherv counts are chosen
// by whoever writes the program, so distinct instances are unbounded: a
// full memo drops an arbitrary entry per insert. 110 instances cover every
// program the dense generator draws. Configs come from code, not from
// programs; a Verifier sees a base config and its power-of-two variant.
const (
	maxInstances = 1024
	maxConfigs   = 8
)

// VerifyStats counts what a Verifier did.
type VerifyStats struct {
	// Derivations is the number of derivations checked, ZeroApplication
	// those among them without a rule application (the rewritten program is
	// the source, evaluated once per input).
	Derivations     uint64 `json:"derivations"`
	ZeroApplication uint64 `json:"zero_application"`
	// InstanceChecks counts rule instances evaluated, InstanceHits those
	// answered from the memo.
	InstanceChecks uint64 `json:"instance_checks"`
	InstanceHits   uint64 `json:"instance_hits"`
	// TailsOnce counts inputs on which source and rewriting agreed bit for
	// bit after their last differing stage, so the rest of the program was
	// evaluated once for both; TailsTwice those on which it ran per side.
	TailsOnce  uint64 `json:"tails_once"`
	TailsTwice uint64 `json:"tails_twice"`
}

// Stats snapshots the counters.
func (v *Verifier) Stats() VerifyStats {
	return VerifyStats{
		Derivations:     v.derivations.Load(),
		ZeroApplication: v.zeroApplication.Load(),
		InstanceChecks:  v.instanceChecks.Load(),
		InstanceHits:    v.instanceHits.Load(),
		TailsOnce:       v.tailsOnce.Load(),
		TailsTwice:      v.tailsTwice.Load(),
	}
}

// configKey is what of a Gen-less config decides the inputs drawn and how
// results are compared.
type configKey struct {
	sizes      string
	pow2       bool
	trials     int
	seed       int64
	blockWords int
	relTol     float64
}

func (c VerifyConfig) key() configKey {
	return configKey{fmt.Sprint(c.Sizes), c.Pow2Only, c.trials(), c.Seed, c.BlockWords, c.RelTol}
}

// instanceKey identifies a rule instance under a config. Window and
// replacement are keyed on their canonical rendering, which names every
// operator (a derived operator by its ingredients') — the identity the plan
// cache already relies on.
type instanceKey struct {
	rule, before, after string
	cfg                 configKey
}

// IllTypedError reports that the functional semantics is undefined on a
// program: evaluating the stage panicked on a drawn input (a scatter whose
// first processor holds no list, say).
type IllTypedError struct {
	// Stage indexes the program's flattened stage list; Term is that stage.
	Stage int
	Term  term.Term
	// Cause is the value the evaluation panicked with.
	Cause any
}

func (e *IllTypedError) Error() string {
	return fmt.Sprintf("ill-typed program: stage %d (%s): %v", e.Stage, e.Term, e.Cause)
}

// CheckDerivation verifies that opt, derived from t by the applications
// apps in order, denotes the same list function: every application is
// checked as an instance (window against replacement, VerifyApplication's
// verdict), then t against opt end to end on cfg's inputs
// (VerifyEquivalence's verdict). From the first Local application on, both
// checks run on power-of-two sizes. The error is an *IllTypedError when t
// itself cannot be evaluated.
//
// The verdict is that of the two public checks run afresh; only work whose
// result is already known is skipped. An instance's verdict depends on
// (rule, window, replacement, config), so it is looked up; a Gen-less
// config draws the same inputs every time, so they are drawn once; and the
// stages t and opt share at either end are the same functions, so the
// common prefix is evaluated once, and the common suffix once whenever the
// two sides reach it with bit-identical values.
func (v *Verifier) CheckDerivation(t, opt term.Term, apps []Application, cfg VerifyConfig) error {
	v.derivations.Add(1)
	if len(apps) == 0 {
		v.zeroApplication.Add(1)
	}
	for _, app := range apps {
		cfg = cfg.forRule(app.Rule)
		if err := v.instance(app, cfg); err != nil {
			return err
		}
	}
	return v.endToEnd(t, opt, shapeFor(t, cfg))
}

// instance is VerifyApplication through the memo. A config with a Gen has
// no key and is checked afresh.
func (v *Verifier) instance(app Application, cfg VerifyConfig) error {
	if cfg.Gen != nil {
		v.instanceChecks.Add(1)
		return VerifyApplication(app, cfg)
	}
	key := instanceKey{app.Rule, Canonical(app.Before), Canonical(app.After), cfg.key()}
	v.mu.Lock()
	err, ok := v.instances[key]
	v.mu.Unlock()
	if ok {
		v.instanceHits.Add(1)
		return err
	}
	v.instanceChecks.Add(1)
	err = VerifyApplication(app, cfg)
	v.mu.Lock()
	if v.instances == nil {
		v.instances = make(map[instanceKey]error)
	}
	if len(v.instances) >= maxInstances {
		for k := range v.instances {
			delete(v.instances, k)
			break
		}
	}
	v.instances[key] = err
	v.mu.Unlock()
	return err
}

// eachInput is cfg.eachInput with the lists of a Gen-less config drawn
// once and shared: evaluation never writes to its input.
func (v *Verifier) eachInput(cfg VerifyConfig, f func(sample) error) error {
	if cfg.Gen != nil {
		return cfg.eachInput(f)
	}
	key := cfg.key()
	v.mu.Lock()
	ins, ok := v.inputs[key]
	v.mu.Unlock()
	if !ok {
		cfg.eachInput(func(s sample) error {
			ins = append(ins, s)
			return nil
		})
		v.mu.Lock()
		if v.inputs == nil {
			v.inputs = make(map[configKey][]sample)
		}
		if len(v.inputs) < maxConfigs {
			v.inputs[key] = ins
		}
		v.mu.Unlock()
	}
	for _, s := range ins {
		if err := f(s); err != nil {
			return err
		}
	}
	return nil
}

// endToEnd compares t and opt on every input of cfg. The program is cut
// into the prefix both share, the middle where they differ and the suffix
// both share; with no application the prefix is the whole program, which
// is then evaluated once and compared with itself (a NaN result is unequal
// to itself, as it is when both sides compute it).
func (v *Verifier) endToEnd(t, opt term.Term, cfg VerifyConfig) error {
	ts, os := term.Stages(t), term.Stages(opt)
	pre, suf := term.CommonEnds(ts, os)
	tailT, tailO := len(ts)-suf, len(os)-suf
	differ := tailT > pre || tailO > pre
	return v.eachInput(cfg, func(s sample) error {
		x, ill := evalStages(ts[:pre], 0, s.in)
		if ill != nil {
			return ill
		}
		l, r, same := x, x, true
		if differ {
			if l, ill = evalStages(ts[pre:tailT], pre, x); ill != nil {
				return ill
			}
			if r, ill = evalStages(os[pre:tailO], pre, x); ill != nil {
				return rewritingFails(t, opt, ill)
			}
			if same = identical(l, r); same {
				v.tailsOnce.Add(1)
			} else {
				v.tailsTwice.Add(1)
			}
		}
		if l, ill = evalStages(ts[tailT:], tailT, l); ill != nil {
			return ill
		}
		if same {
			r = l
		} else if r, ill = evalStages(os[tailO:], tailO, r); ill != nil {
			return rewritingFails(t, opt, ill)
		}
		return mismatch(t, opt, s, l, r, cfg.RelTol)
	})
}

// rewritingFails is the verdict when only the rewritten side panics: the
// derivation is wrong, not the program.
func rewritingFails(t, opt term.Term, ill *IllTypedError) error {
	return fmt.Errorf("rules: %s rewritten to %s cannot be evaluated: stage %d (%s): %v", t, opt, ill.Stage, ill.Term, ill.Cause)
}

// evalStages is term.Eval of the stage list on xs, with a panic of the
// evaluation returned as the error naming the stage; at is the index of
// stages[0] in its program.
func evalStages(stages []term.Term, at int, xs []algebra.Value) (out []algebra.Value, ill *IllTypedError) {
	i := 0
	defer func() {
		if cause := recover(); cause != nil {
			out, ill = nil, &IllTypedError{Stage: at + i, Term: stages[i], Cause: cause}
		}
	}()
	for ; i < len(stages); i++ {
		xs = term.Eval(stages[i], xs)
	}
	return xs, nil
}

// identical reports that two result lists are the same bit for bit: from
// identical lists the rest of a program computes identical results. It is
// stricter than ==: -0 and +0 differ (1/x tells them apart) while a NaN is
// identical to itself. Undef is identical to Undef only, and a
// representation not listed here to nothing.
func identical(a, b []algebra.Value) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !identicalValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

func identicalValue(a, b algebra.Value) bool {
	switch x := a.(type) {
	case algebra.Scalar:
		y, ok := b.(algebra.Scalar)
		return ok && math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	case algebra.Vec:
		y, ok := b.(algebra.Vec)
		if !ok || len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	case algebra.Tuple:
		y, ok := b.(algebra.Tuple)
		return ok && identical(x, y)
	case algebra.Undef:
		_, ok := b.(algebra.Undef)
		return ok
	}
	return false
}
