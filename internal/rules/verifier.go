package rules

import (
	"fmt"
	"math"
	"strconv"
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
	inputs map[configKey]*inputLists

	derivations, zeroApplication atomic.Uint64
	instanceChecks, instanceHits atomic.Uint64
	tailsOnce, tailsTwice        atomic.Uint64
	packed, perInput             atomic.Uint64
}

// inputLists is what a Gen-less config draws, in two forms: drawn holds the
// lists as eachInput yields them; packed holds, per machine size n, one list
// of n blocks whose words are the drawn inputs of that size side by side, in
// drawn's order — a scalar input is one lane of each block, a BlockWords
// block that many. The numbers are the same, so whatever happens to a drawn
// input (an overflow into NaN, say) happens in its lanes.
type inputLists struct {
	drawn, packed []sample
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
	// Both count per input list evaluated: a derivation the packed pass
	// decides evaluates one list per machine size.
	TailsOnce  uint64 `json:"tails_once"`
	TailsTwice uint64 `json:"tails_twice"`
	// Packed counts derivations accepted on the packed lists alone;
	// PerInput those sent through the drawn inputs one by one — every
	// failure, every config with a Gen and every program with a stage not
	// known to be lane-wise.
	Packed   uint64 `json:"packed"`
	PerInput uint64 `json:"per_input"`
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
		Packed:          v.packed.Load(),
		PerInput:        v.perInput.Load(),
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
	var buf [64]byte
	k := c.keyWithout()
	k.sizes = string(c.appendSizes(buf[:0]))
	return k
}

// keyWithout is c's key but for its sizes.
func (c VerifyConfig) keyWithout() configKey {
	return configKey{"", c.Pow2Only, c.trials(), c.Seed, c.BlockWords, c.RelTol}
}

// appendSizes appends Sizes as fmt.Sprint prints them, "[1 2 4 8]".
func (c VerifyConfig) appendSizes(b []byte) []byte {
	b = append(b, '[')
	for i, n := range c.Sizes {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(n), 10)
	}
	return append(b, ']')
}

// key is cfg.key(), and the very key the Verifier holds cfg's inputs under
// when it holds them: a check asks once per config it runs, and renders a
// string only for a config it has not seen.
func (v *Verifier) key(cfg VerifyConfig) configKey {
	var buf [64]byte
	sizes := cfg.appendSizes(buf[:0])
	k := cfg.keyWithout()
	v.mu.Lock()
	for held := range v.inputs {
		if held.sizes == string(sizes) {
			if k.sizes = held.sizes; k == held {
				v.mu.Unlock()
				return held
			}
		}
	}
	v.mu.Unlock()
	k.sizes = string(sizes)
	return k
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
// config draws the same inputs every time, so they are drawn once; the
// stages t and opt share at either end are the same functions, so the
// common prefix is evaluated once, and the common suffix once whenever the
// two sides reach it with bit-identical values; and a stage that acts on
// each word of a block by itself computes on blocks holding many inputs
// side by side what it computes on each, so a program of such stages is
// evaluated once per machine size (packedClean).
func (v *Verifier) CheckDerivation(t, opt term.Term, apps []Application, cfg VerifyConfig) error {
	sc := scratches.Get().(*term.Scratch)
	defer func() {
		if sc.Bytes() <= maxScratchBytes {
			scratches.Put(sc)
		}
	}()
	return v.check(t, opt, apps, cfg, sc)
}

// check is CheckDerivation evaluating in sc.
func (v *Verifier) check(t, opt term.Term, apps []Application, cfg VerifyConfig, sc *term.Scratch) error {
	v.derivations.Add(1)
	if len(apps) == 0 {
		v.zeroApplication.Add(1)
	}
	// The key of the config each check runs under, looked up once: the
	// config moves to the power-of-two sizes at the first Local application.
	var key configKey
	keyed := false
	for _, app := range apps {
		if c, moved := cfg.forRule(app.Rule); moved {
			cfg, keyed = c, false
		}
		if !keyed {
			key, keyed = v.key(cfg), true
		}
		if err := v.instance(app, cfg, key, sc); err != nil {
			return err
		}
	}
	if !keyed {
		key = v.key(cfg)
	}
	return v.endToEnd(t, opt, shapeFor(t, cfg), key, sc)
}

// scratches holds the evaluation storage of derivation checks. Nothing drawn
// from one outlives its input list: a report is rendered with its verdict.
// One that grew past maxScratchBytes is dropped, not kept behind every later
// check.
var scratches = sync.Pool{New: func() any { return new(term.Scratch) }}

const maxScratchBytes = 64 << 10

// instance is VerifyApplication through the memo; key is cfg's. A config
// with a Gen has no key and is checked afresh.
func (v *Verifier) instance(app Application, cfg VerifyConfig, key configKey, sc *term.Scratch) error {
	if cfg.Gen != nil {
		v.instanceChecks.Add(1)
		return VerifyApplication(app, cfg)
	}
	ik := instanceKey{app.Rule, Canonical(app.Before), Canonical(app.After), key}
	v.mu.Lock()
	err, ok := v.instances[ik]
	v.mu.Unlock()
	if ok {
		v.instanceHits.Add(1)
		return err
	}
	v.instanceChecks.Add(1)
	before := term.Seq(app.Before)
	if !v.packedClean(cut(before, term.Seq(app.After), cfg.RelTol, sc), shapeFor(before, cfg), key) {
		err = VerifyApplication(app, cfg)
	}
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
	v.instances[ik] = err
	v.mu.Unlock()
	return err
}

// lists returns the input lists of a Gen-less config, whose key is key,
// drawn and packed once and shared: evaluation never writes to its input.
func (v *Verifier) lists(cfg VerifyConfig, key configKey) *inputLists {
	v.mu.Lock()
	ins, ok := v.inputs[key]
	v.mu.Unlock()
	if ok {
		return ins
	}
	ins = new(inputLists)
	cfg.eachInput(func(s sample) error {
		ins.drawn = append(ins.drawn, s)
		return nil
	})
	ins.packed = pack(ins.drawn)
	v.mu.Lock()
	if v.inputs == nil {
		v.inputs = make(map[configKey]*inputLists)
	}
	if len(v.inputs) < maxConfigs {
		v.inputs[key] = ins
	}
	v.mu.Unlock()
	return ins
}

// pack lays the drawn inputs of each machine size side by side: eachInput
// yields all inputs of a size in a row, and every such run of n-lists
// becomes one n-list of Vec blocks.
func pack(drawn []sample) []sample {
	var packed []sample
	for lo, hi := 0, 0; lo < len(drawn); lo = hi {
		n := drawn[lo].n
		for hi < len(drawn) && drawn[hi].n == n {
			hi++
		}
		in := make([]algebra.Value, n)
		for i := range in {
			var block algebra.Vec
			for _, s := range drawn[lo:hi] {
				switch x := s.in[i].(type) {
				case algebra.Scalar:
					block = append(block, float64(x))
				case algebra.Vec:
					block = append(block, x...)
				}
			}
			in[i] = block
		}
		packed = append(packed, sample{n: n, in: in})
	}
	return packed
}

// laneWise reports that every stage is known to act on each word of a
// block by itself, from what the stage carries: a base operator its scalar
// function, a derived operator the flat kernel it has exactly when it was
// built from such operators (and which the TestFlat* tests hold bitwise to
// its boxed form), a local function its declaration. Broadcast, gather,
// scatter and halo move whole values. Anything else — an index-aware map,
// the counts stages, whose vectors are the shape — is not.
func laneWise(stages []term.Term) bool {
	for _, st := range stages {
		ok := false
		switch s := st.(type) {
		case term.Map:
			ok = s.F.Elementwise
		case term.Scan:
			ok = s.Op.Elem != nil || s.Op.FlatFn != nil
		case term.Reduce:
			ok = s.Op.Elem != nil || s.Op.FlatFn != nil
		case term.ScanBal:
			ok = s.Op.FlatLo != nil
		case term.Comcast:
			ok = s.Ops.FlatE != nil
		case term.Iter:
			ok = s.Op.FlatF != nil
		case term.Bcast, term.Gather, term.Scatter, term.Halo:
			ok = true
		}
		if !ok {
			return false
		}
	}
	return true
}

// packedClean reports that the two sides of d agree on every packed list
// of cfg — which, every stage being lane-wise, is to say on every input cfg
// draws. False decides nothing: a mismatch, a program the semantics is
// undefined on and a stage that is not lane-wise (or fixes the length of a
// vector and so panics on the wider block) all get their verdict, and its
// report, from the drawn inputs one by one.
func (v *Verifier) packedClean(d *derivation, cfg VerifyConfig, key configKey) bool {
	// Outside its middle the rewriting has the source's own stages.
	if cfg.Gen != nil || !laneWise(d.ts) || !laneWise(d.os[d.pre:d.tailO]) {
		return false
	}
	for _, s := range v.lists(cfg, key).packed {
		if d.on(s) != nil {
			return false
		}
	}
	return true
}

// endToEnd compares t and opt on every input of cfg, whose key is key: on
// the packed lists when that settles it, else input by input.
func (v *Verifier) endToEnd(t, opt term.Term, cfg VerifyConfig, key configKey, sc *term.Scratch) error {
	d := cut(t, opt, cfg.RelTol, sc)
	defer func() {
		v.tailsOnce.Add(d.tailsOnce)
		v.tailsTwice.Add(d.tailsTwice)
	}()
	if v.packedClean(d, cfg, key) {
		v.packed.Add(1)
		return nil
	}
	v.perInput.Add(1)
	if cfg.Gen != nil {
		return cfg.eachInput(d.on)
	}
	for _, s := range v.lists(cfg, key).drawn {
		if err := d.on(s); err != nil {
			return err
		}
	}
	return nil
}

// derivation is a program and its rewriting cut into the prefix both
// share, the middle where they differ and the suffix both share; with no
// application the prefix is the whole program, which is then evaluated once
// and compared with itself (a NaN result is unequal to itself, as it is
// when both sides compute it).
type derivation struct {
	t, opt            term.Term
	ts, os            []term.Term
	pre, tailT, tailO int
	relTol            float64
	sc                *term.Scratch // reset after each input list
	// tailsOnce and tailsTwice count the input lists on which the suffix
	// was evaluated once for both sides, and once per side.
	tailsOnce, tailsTwice uint64
}

func cut(t, opt term.Term, relTol float64, sc *term.Scratch) *derivation {
	ts, os := term.Stages(t), term.Stages(opt)
	pre, suf := term.CommonEnds(ts, os)
	return &derivation{t: t, opt: opt, ts: ts, os: os, pre: pre, tailT: len(ts) - suf, tailO: len(os) - suf, relTol: relTol, sc: sc}
}

// on compares the two sides on one input list.
func (d *derivation) on(s sample) error {
	defer d.sc.Reset()
	x, ill := evalStages(d.sc, d.ts[:d.pre], 0, s.in)
	if ill != nil {
		return ill
	}
	l, r, same := x, x, true
	if d.tailT > d.pre || d.tailO > d.pre {
		if l, ill = evalStages(d.sc, d.ts[d.pre:d.tailT], d.pre, x); ill != nil {
			return ill
		}
		if r, ill = evalStages(d.sc, d.os[d.pre:d.tailO], d.pre, x); ill != nil {
			return rewritingFails(d.t, d.opt, ill)
		}
		if same = identical(l, r); same {
			d.tailsOnce++
		} else {
			d.tailsTwice++
		}
	}
	if l, ill = evalStages(d.sc, d.ts[d.tailT:], d.tailT, l); ill != nil {
		return ill
	}
	if same {
		r = l
	} else if r, ill = evalStages(d.sc, d.os[d.tailO:], d.tailO, r); ill != nil {
		return rewritingFails(d.t, d.opt, ill)
	}
	return mismatch(d.t, d.opt, s, l, r, d.relTol)
}

// rewritingFails is the verdict when only the rewritten side panics: the
// derivation is wrong, not the program.
func rewritingFails(t, opt term.Term, ill *IllTypedError) error {
	return fmt.Errorf("rules: %s rewritten to %s cannot be evaluated: stage %d (%s): %v", t, opt, ill.Stage, ill.Term, ill.Cause)
}

// evalStages is sc.Eval of the stage list on xs, with a panic of the
// evaluation returned as the error naming the stage; at is the index of
// stages[0] in its program.
func evalStages(sc *term.Scratch, stages []term.Term, at int, xs []algebra.Value) (out []algebra.Value, ill *IllTypedError) {
	i := 0
	defer func() {
		if cause := recover(); cause != nil {
			out, ill = nil, &IllTypedError{Stage: at + i, Term: stages[i], Cause: cause}
		}
	}()
	for ; i < len(stages); i++ {
		xs = sc.Eval(stages[i], xs)
	}
	return xs, nil
}

// identical reports that two result lists are the same bit for bit: from
// identical lists the rest of a program computes identical results. It is
// stricter than ==: -0 and +0 differ (1/x tells them apart) while a NaN is
// identical to itself. Undef is identical to Undef only, a flat tuple to the
// tuple it represents in either form, and a representation not listed here
// to nothing.
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
	x, xf := a.(*algebra.FlatTuple)
	y, yf := b.(*algebra.FlatTuple)
	if xf && yf {
		return x.W == y.W && identicalWords(x.Data, y.Data)
	}
	if xf || yf {
		a, b = algebra.Boxed(a), algebra.Boxed(b)
	}
	switch x := a.(type) {
	case algebra.Scalar:
		y, ok := b.(algebra.Scalar)
		return ok && math.Float64bits(float64(x)) == math.Float64bits(float64(y))
	case algebra.Vec:
		y, ok := b.(algebra.Vec)
		return ok && identicalWords(x, y)
	case algebra.Tuple:
		y, ok := b.(algebra.Tuple)
		return ok && identical(x, y)
	case algebra.Undef:
		_, ok := b.(algebra.Undef)
		return ok
	}
	return false
}

func identicalWords(x, y []float64) bool {
	if len(x) != len(y) {
		return false
	}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return true
}
