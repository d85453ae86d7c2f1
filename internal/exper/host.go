package exper

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/mpbackend"
)

// Runner measures one whole-program run and returns its makespan:
// deterministic cost-model time units on the virtual Host, wall-clock
// nanoseconds (minimum over the Host's repetitions) on the native one.
// Every figure/table function takes one, so each re-runs for real.
type Runner func(prog core.Program, mach core.Machine, in []algebra.Value) float64

// Host is a backend the measurement layer can time. A measurement is
// Host × job × view: the jobs (mpbackend.ProbeParams, CollectiveParams)
// are written once over coll.Comm, the sweeps and reports (SweepAlgos,
// SweepRules, calib.Run) are written once over Host, and a Host is the
// only place that knows what is underneath — so a table or a calibration
// runs on a new transport by constructing one value. There are exactly
// three: NativeHost, MultiProcHost and VirtualHost.
type Host struct {
	// Name labels records and reports: "native", "multiproc", "virtual".
	Name string
	// Workers is the parallelism calib.Coef should assume — ranks beyond
	// it serialize; ≤ 0 means unlimited (the virtual machine).
	Workers int
	// Reps is the number of repetitions a measurement is the minimum of,
	// after one discarded warm-up.
	Reps int
	// Run measures whole programs. It is nil on the multi-process Host
	// until a plan can cross the wire; callers that need it must check.
	Run Runner
	// launch runs the job — registered with mpbackend under the name
	// body — on p ranks and returns the minimum makespan over the timed
	// repetitions and the last repetition's per-rank results. It is the
	// only per-backend code of the measurement layer.
	launch func(body string, job mpbackend.Job, p int) (float64, []algebra.Value, error)
}

// Probe times one calibration probe on p ranks.
func (h Host) Probe(ps mpbackend.ProbeParams, p int) (float64, error) {
	ps.Reps = h.Reps
	t, _, err := h.launch("probe", ps, p)
	return t, err
}

// Collective times one collective under one portfolio algorithm on p
// ranks and returns the per-rank results alongside — bitwise equal on
// every Host, which the conformance test pins.
func (h Host) Collective(cs mpbackend.CollectiveParams, p int) (float64, []algebra.Value, error) {
	cs.Reps = h.Reps
	return h.launch("collective", cs, p)
}

// NativeHost times on the goroutine backend over the given transport:
// a job runs on one backend.Machine reps+1 times — barrier start, per-rank
// elapsed time, makespan of the last rank (see package backend) — so the
// cached mailboxes and scratch arenas warm up on the discarded first run
// and the minimum reflects the allocation-free steady state. A Runner
// call is reps runs sharing one machine; the sweeps discard one call.
func NativeHost(transport backend.TransportMode, reps int) Host {
	reps = max(reps, 1)
	return Host{
		Name: "native", Workers: runtime.GOMAXPROCS(0), Reps: reps,
		Run: func(prog core.Program, mach core.Machine, in []algebra.Value) float64 {
			nm := backend.New(mach.P)
			nm.Transport = transport
			best := math.MaxFloat64
			for i := 0; i < reps; i++ {
				_, res := prog.RunOn(nm, in)
				best = min(best, float64(res.Makespan.Nanoseconds()))
			}
			return best
		},
		launch: inProcess(1, reps, func(p int) spmd {
			nm := backend.New(p)
			nm.Transport = transport
			return func(body func(c coll.Comm)) float64 {
				return float64(nm.Run(func(pr *backend.Proc) { body(pr) }).Makespan.Nanoseconds())
			}
		}),
	}
}

// VirtualHost times on the virtual machine with start-up ts and per-word
// cost tw: makespans are deterministic cost-model time units, so one run
// is the measurement. As on the native Host, a core.Machine handed to its
// Runner only sizes the run — the Host's own ts/tw apply.
func VirtualHost(ts, tw float64) Host {
	return Host{
		Name: "virtual", Reps: 1,
		Run: func(prog core.Program, mach core.Machine, in []algebra.Value) float64 {
			mach.Ts, mach.Tw = ts, tw
			return RunVirtual(prog, mach, in)
		},
		launch: inProcess(0, 1, func(p int) spmd {
			vm := machine.New(p, machine.Params{Ts: ts, Tw: tw})
			return func(body func(c coll.Comm)) float64 {
				return vm.Run(func(pr *machine.Proc) { body(pr) }).Makespan
			}
		}),
	}
}

// RunVirtual measures on the virtual machine at the ts/tw of each call's
// core.Machine: deterministic makespans in cost-model time units.
var RunVirtual Runner = func(prog core.Program, mach core.Machine, in []algebra.Value) float64 {
	_, res := prog.Run(mach, in)
	return res.Makespan
}

// MultiProcHost times with the ranks as separate OS processes over Unix
// sockets (package mpbackend) — the transport where every message is
// serialized through the kernel, tw > 0 is measurable and the
// bandwidth-oriented algorithms overtake the butterfly for real. One
// process group runs a warm-up plus reps barrier-synchronized
// repetitions; mpbackend.MinMakespan reduces them. A binary using it must
// call mpbackend.MaybeWorker() first thing in main (or TestMain): jobs
// re-execute the running binary to spawn ranks.
func MultiProcHost(reps int) Host {
	return Host{
		Name: "multiproc", Workers: runtime.NumCPU(), Reps: max(reps, 1),
		launch: func(body string, job mpbackend.Job, p int) (float64, []algebra.Value, error) {
			res, err := mpbackend.Run(body, p, job, mpbackend.Options{})
			if err != nil {
				return 0, nil, fmt.Errorf("exper: multiproc %s job %+v (p=%d): %w", body, job, p, err)
			}
			ns, err := mpbackend.MinMakespan(res)
			if err != nil {
				return 0, nil, err
			}
			timings, err := mpbackend.Decode[mpbackend.TimingResult](res)
			if err != nil {
				return 0, nil, err
			}
			out := make([]algebra.Value, p)
			for r, tr := range timings {
				if tr.Result == "" {
					continue
				}
				if out[r], err = mpbackend.DecodeResult(tr.Result); err != nil {
					return 0, nil, err
				}
			}
			return ns, out, nil
		},
	}
}

// spmd runs one SPMD program on an in-process machine and returns its
// makespan.
type spmd func(body func(c coll.Comm)) float64

// inProcess is the launcher of the two in-process Hosts: the job's
// operation is prepared once, then run warm+reps times on one machine of
// p ranks, the first warm runs discarded.
func inProcess(warm, reps int, machineFor func(p int) spmd) func(string, mpbackend.Job, int) (float64, []algebra.Value, error) {
	return func(_ string, job mpbackend.Job, p int) (float64, []algebra.Value, error) {
		op, err := job.Prepare(p)
		if err != nil {
			return 0, nil, err
		}
		out := make([]algebra.Value, p)
		run := machineFor(p)
		best := math.MaxFloat64
		for i := 0; i < warm+reps; i++ {
			t := run(func(c coll.Comm) { out[c.Rank()] = op(c) })
			if i >= warm {
				best = min(best, t)
			}
		}
		return best, out, nil
	}
}
