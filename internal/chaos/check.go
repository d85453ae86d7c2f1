package chaos

import (
	"fmt"

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
// minimize hangs too.
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
// Check as the predicate, and returned with its collchaos replay line.
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
	min := Shrink(c, func(cand Case) bool { return Check(cand) != nil })
	return fmt.Errorf("%s: %v\n  minimal: %s\n  replay:  %s", c, err, min, min.Repro())
}

// baseline runs the fault-free legs and returns the inputs and the native
// outputs the chaos legs are held to.
func baseline(c Case) (in, want []algebra.Value, err error) {
	defer catch(&err)
	in = mpbackend.ConformanceInputs(c.Prog, c.P, c.M)
	prog := core.FromTerm(c.Prog)
	want, _ = prog.RunNative(c.P, in)
	sem := term.Eval(c.Prog, in)
	for r := range sem {
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

// multiProc runs the program in c.P rank processes of this binary, through
// the "program" body, when it prints to source the body reads back.
func multiProc(c Case, want []algebra.Value) error {
	params := mpbackend.ProgramParams{Src: c.Prog.String(), M: c.M, Reps: 1}
	if _, err := params.Prepare(c.P); err != nil {
		return nil
	}
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
// backend's.
func same(leg string, got, want []algebra.Value) error {
	for r := range want {
		if !algebra.Equal(got[r], want[r]) {
			return fmt.Errorf("rank %d: %s %v, native %v", r, leg, got[r], want[r])
		}
	}
	return nil
}

// determined reports whether got holds want's value, to a relative
// tolerance, wherever want is determined: a position the semantics leaves
// Undef is a don't-care, an Undef where it has a value is wrong.
func determined(want, got algebra.Value, tol float64) bool {
	want, got = algebra.Boxed(want), algebra.Boxed(got)
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
