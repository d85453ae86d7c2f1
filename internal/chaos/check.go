package chaos

import (
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/mpbackend"
	"repro/internal/term"
)

// Check is the conformance oracle: it runs the case on the conformance
// inputs (mpbackend.ConformanceInputs) on every leg — the virtual machine,
// the native backend on both transports, the rank processes of the
// "program" body where it can run, and, unless the Profile is zero, the
// chaos-wrapped native and virtual machines. Each leg must return the
// native backend's outputs bit for bit, and those must hold term.Eval's
// value wherever it determines one. Check returns the first disagreement,
// or a panic (a deadlock diagnosis, a timeout) as an error, so Shrink can
// minimize hangs too. The semantics is evaluated first: a program it
// cannot evaluate (a stage fed a value it does not take) is reported as
// ErrIllTyped, before any machine runs it.
func Check(c Case) error {
	in, want, err := baseline(c)
	if err == nil && c.Profile.Name != "" {
		err = faulted(c, in, want, true)
	}
	return err
}

// Sweep checks c's program under every profile and the seeds c.Seed …
// c.Seed+seeds−1, running the fault-free legs once and the chaos virtual
// leg on each profile's first seed. The first failure is shrunk, with
// Check as the predicate, and returned with its collchaos replay line and
// the process's MultiProcLegs.
func Sweep(c Case, profiles []Profile, seeds int) error {
	base := c.Seed
	c.Profile = profiles[0]
	in, want, err := baseline(c)
	for i := 0; err == nil && i < len(profiles)*seeds; i++ {
		c.Profile, c.Seed = profiles[i/seeds], base+int64(i%seeds)
		err = faulted(c, in, want, i%seeds == 0)
	}
	if err == nil {
		return nil
	}
	min := Shrink(c, func(cand Case) bool {
		err := Check(cand)
		return err != nil && !errors.Is(err, ErrIllTyped)
	})
	return fmt.Errorf("%s: %v\n  minimal: %s\n  replay:  %s\n  %s", c, err, min, min.Repro(), MultiProcLegs())
}

var mpRun, mpSkipped atomic.Int64

// MultiProcLegs counts the multi-process legs of this process's checks:
// run, and skipped because lang cannot read the program back (it knows no
// derived operator). It is 0 and 0 in a process that cannot spawn ranks.
func MultiProcLegs() string {
	return fmt.Sprintf("multi-process: %d run, %d skipped (lang cannot read)", mpRun.Load(), mpSkipped.Load())
}

// ErrIllTyped is Check's error for a program the semantics cannot
// evaluate on its conformance inputs: no machine is wrong about it. Sweep
// never shrinks a failure to such a case.
var ErrIllTyped = errors.New("chaos: the semantics cannot evaluate the program")

// semantics evaluates c's program on its conformance inputs, with a panic
// of the evaluator returned as ErrIllTyped.
func semantics(c Case) (in, sem []algebra.Value, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrIllTyped, r)
		}
	}()
	in = mpbackend.ConformanceInputs(c.Prog, c.P, c.M)
	return in, term.Eval(c.Prog, in), nil
}

// baseline runs the fault-free legs and returns the inputs and the native
// outputs the chaos legs are held to.
func baseline(c Case) (in, want []algebra.Value, err error) {
	in, sem, err := semantics(c)
	if err != nil {
		return nil, nil, err
	}
	defer catch(&err)
	prog := core.FromTerm(c.Prog)
	want, _ = prog.RunNative(c.P, in)
	for r := range sem {
		if flat(want[r]) {
			return nil, nil, fmt.Errorf("rank %d: native %v holds a flat tuple, not its boxed value", r, want[r])
		}
		if !determined(sem[r], want[r], c.Tol) {
			return nil, nil, fmt.Errorf("rank %d: native %v, semantics %v", r, want[r], sem[r])
		}
	}
	virtual, _ := prog.Run(core.Machine{Ts: 100, Tw: 1, P: c.P, M: c.M}, in)
	copying := backend.New(c.P)
	copying.Transport = backend.TransportCopy
	copied, _ := prog.RunOn(copying, in)
	if err = same("virtual", virtual, want); err == nil {
		err = same("native copy", copied, want)
	}
	if err == nil && mpbackend.CanSpawn() {
		err = multiProc(c, want)
	}
	return in, want, err
}

// faulted runs the chaos-wrapped native leg, and the virtual one if
// asked, under c's profile and seed.
func faulted(c Case, in, want []algebra.Value, virtual bool) (err error) {
	defer catch(&err)
	err = same("chaos native", runOn(OnNative, c, in), want)
	if err == nil && virtual {
		err = same("chaos virtual", runOn(OnVirtual, c, in), want)
	}
	return err
}

// runOn runs the program on a chaos-wrapped machine.
func runOn(on func(int, Profile, int64, func(coll.Comm)), c Case, in []algebra.Value) []algebra.Value {
	out := make([]algebra.Value, c.P)
	on(c.P, c.Profile, c.Seed, func(cm coll.Comm) { out[cm.Rank()] = core.RunStages(cm, c.Prog, in[cm.Rank()]) })
	return out
}

// params is c as the parameters of the multi-process "program" body, and
// whether the body can run it: whether the program prints to source that
// lang reads back (it knows no derived operator).
func (c Case) params() (mpbackend.ProgramParams, bool) {
	ps := mpbackend.ProgramParams{Src: c.Prog.String(), M: c.M, Reps: 1}
	_, err := ps.Prepare(c.P)
	return ps, err == nil
}

// multiProc runs the program in c.P rank processes of this binary, through
// the "program" body, when the body can run it.
func multiProc(c Case, want []algebra.Value) error {
	params, ok := c.params()
	if !ok {
		mpSkipped.Add(1)
		return nil
	}
	mpRun.Add(1)
	res, err := mpbackend.Run("program", c.P, params, mpbackend.Options{})
	if err != nil {
		return err
	}
	timings, err := mpbackend.Decode[mpbackend.TimingResult](res)
	got := make([]algebra.Value, c.P)
	for r := 0; err == nil && r < c.P; r++ {
		got[r], err = mpbackend.DecodeResult(timings[r].Result)
	}
	if err != nil {
		return err
	}
	return same("multiproc", got, want)
}

// same returns the first rank where a leg's outputs differ from the native
// backend's in a bit, or hold a flat tuple, which algebra.Identical would
// let through.
func same(leg string, got, want []algebra.Value) error {
	for r := range want {
		if flat(got[r]) {
			return fmt.Errorf("rank %d: %s %v holds a flat tuple, not its boxed value", r, leg, got[r])
		}
		if !algebra.Identical(got[r], want[r]) {
			return fmt.Errorf("rank %d: %s %v, native %v", r, leg, got[r], want[r])
		}
	}
	return nil
}

// flat reports whether v is or nests a flat tuple: a run's outputs are
// boxed, at every depth.
func flat(v algebra.Value) bool {
	switch x := v.(type) {
	case *algebra.FlatTuple:
		return true
	case algebra.Tuple:
		for _, c := range x {
			if flat(c) {
				return true
			}
		}
	}
	return false
}

// determined reports whether got holds want's value, to a relative
// tolerance, wherever want is determined: a position the semantics leaves
// Undef is a don't-care, an Undef where it has a value is wrong. Both are
// boxed at every depth (term.Eval's, and an output flat has passed).
func determined(want, got algebra.Value, tol float64) bool {
	switch w := want.(type) {
	case algebra.Undef:
		return true
	case algebra.Tuple:
		g, ok := got.(algebra.Tuple)
		if !ok || len(g) != len(w) {
			return false
		}
		for i := range w {
			if !determined(w[i], g[i], tol) {
				return false
			}
		}
		return true
	}
	return !algebra.IsUndef(got) && algebra.EqualApproxModuloUndef(want, got, tol)
}

// catch turns a panic into the error *err.
func catch(err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("panic: %v", r)
	}
}
