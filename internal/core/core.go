// Package core is the public face of the library: it ties the formal
// framework (package term), the optimization rules (package rules), the
// cost calculus (package cost) and the virtual machine with its collective
// operations (packages machine, coll) together into the workflow the paper
// advocates — write a program as a composition of collective operations,
// ask which rules apply, let the cost estimates decide, rewrite, verify,
// and run.
//
// A minimal session:
//
//	prog := core.NewProgram().Scan(algebra.Mul).Reduce(algebra.Add)
//	opt := prog.Optimize(core.Machine{Ts: 1000, Tw: 1, P: 64, M: 128})
//	out, res := opt.Program.Run(core.Machine{Ts: 1000, Tw: 1, P: 64}, input)
//
// # Where a value is boxed
//
// A derived operator's flat result (package coll's "Results") goes to the
// next stage as it is: its operator works on it, π₁ views it. The run and
// the semantics (term.Scratch) box it (algebra.Boxed) only where it leaves
// the run (the stage loop, term.Eval), is nested (gather, halo, a
// duplication in term.Apply), is taken apart (scatter), or meets a
// function written for the boxed form (a local function in term.Apply, a
// map# function); outside a run, package rules' bitwise comparison and
// package golden's encoding box one to compare or record it.
package core

import (
	"fmt"
	"sync"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/coll/sel"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/term"
)

// Machine describes the target machine for cost estimation and execution:
// start-up time Ts, per-word time Tw, number of processors P, and — for
// estimates only — the block size M in words.
type Machine struct {
	// Ts is the message start-up time in computation units.
	Ts float64
	// Tw is the per-word transfer time in computation units.
	Tw float64
	// P is the number of processors.
	P int
	// M is the per-processor block size in words (estimation only; at
	// run time the actual value sizes are used).
	M int
}

func (m Machine) costParams() cost.Params {
	return cost.Params{Ts: m.Ts, Tw: m.Tw, M: m.M, P: m.P}
}

func (m Machine) virtual() *machine.Machine {
	return machine.New(m.P, machine.Params{Ts: m.Ts, Tw: m.Tw})
}

// RunStages executes the stages of t over an arbitrary communicator: the
// raw-term entry to the executor's one stage loop, for callers that hold a
// term rather than a Program. It is called once per group member from
// inside an SPMD body (package chaos's runners and mpbackend's bodies do).
// For a flat Seq it allocates nothing of its own: sels are laid out per
// stage only when some are given, and labels rendered only on a rank that
// records marks. Program's Run methods compile once and share the result.
//
// Stages hand each other values in the form their operators work in (a
// derived operator's flat tuple, package coll's "Results"); what RunStages
// returns is boxed, as term.Eval's result is: a flat tuple that ends the
// program is boxed on its way out. Its blocks and tuple headers, like a
// local stage's result, may be drawn from c's arena: it is valid until
// this machine's next run.
//
// sels are optional algorithm selections (sel.ForTerm's, addressing
// stages by the same flattened index the loop counts): an unbalanced
// reduction stage carrying one runs the chosen portfolio algorithm, with
// coll.ReduceBy's run-time fallback to the butterfly; every other stage,
// and every stage without a selection, runs the §4.1 implementation.
func RunStages(c coll.Comm, t term.Term, v algebra.Value, sels ...sel.Selection) algebra.Value {
	stages := term.Stages(t)
	return stageLoop(c, stages, choicesOf(len(stages), sels), nil, v)
}

// compiled is a program as the stage loop wants it: everything a run would
// otherwise redo on every rank. It is filled at most once and read-only
// afterwards, so the ranks of a run — and concurrent runs of copies of one
// Program — share it.
type compiled struct {
	once sync.Once
	// stages is the flattened stage list.
	stages []term.Term
	// choices[i] is stage i's algorithm selection; nil when no stage
	// carries one, and every stage runs the §4.1 implementation.
	choices []sel.Selection
	// labels[i] is stages[i].String(), stage i's mark.
	labels []string
}

// choicesOf lays sels out per stage of an n-stage program; nil without sels.
func choicesOf(n int, sels []sel.Selection) []sel.Selection {
	if len(sels) == 0 {
		return nil
	}
	choices := make([]sel.Selection, n)
	for i := range choices {
		choices[i].Algo = cost.AlgoButterfly
	}
	for _, s := range sels {
		if s.Stage >= 0 && s.Stage < n {
			choices[s.Stage] = s
		}
	}
	return choices
}

func (cp *compiled) run(c coll.Comm, v algebra.Value) algebra.Value {
	return stageLoop(c, cp.stages, cp.choices, cp.labels, v)
}

// stageLoop is the executor's one stage loop, on every backend: it threads
// one group member's value through every stage, marking stage boundaries
// (labels[i], or the stage's String without labels) when the rank records
// them. A value passes from stage to stage in the form its operator works
// in — a derived operator's flat tuple as the collective returned it — and
// is boxed once, where it leaves the run.
func stageLoop(c coll.Comm, stages []term.Term, choices []sel.Selection, labels []string, v algebra.Value) algebra.Value {
	mark := c.Caps().Mark
	for i, s := range stages {
		if mark != nil {
			if labels != nil {
				mark(labels[i])
			} else {
				mark(s.String())
			}
		}
		algo, segments := cost.AlgoButterfly, 0
		if choices != nil {
			algo, segments = choices[i].Algo, choices[i].Segments
		}
		v = execStage(s, c, v, algo, segments)
	}
	return algebra.Boxed(v)
}

func execStage(s term.Term, c coll.Comm, v algebra.Value, algo cost.Algo, segments int) algebra.Value {
	switch st := s.(type) {
	case term.Map:
		next := term.Apply(c.Caps().Arena, st.F, v)
		if st.F.Cost > 0 {
			c.Compute(float64(st.F.Cost) * float64(v.Words()))
		}
		return next
	case term.MapIdx:
		next := st.F.F(c.Rank(), algebra.Boxed(v))
		if st.F.Charge != nil {
			c.Compute(st.F.Charge(c.Rank(), v.Words()))
		}
		return next
	case term.Scan:
		return coll.Scan(c, st.Op, v)
	case term.ScanBal:
		return coll.ScanBalanced(c, st.Op, v)
	case term.Reduce:
		switch {
		case st.Balanced && st.All:
			return coll.AllReduceBalanced(c, st.Op, v)
		case st.Balanced:
			return coll.ReduceBalanced(c, st.Op, v)
		default:
			return coll.ReduceBy(c, st.Op, v, st.All, algo, segments)
		}
	case term.Bcast:
		return coll.Bcast(c, 0, v)
	case term.Gather:
		gathered := coll.Gather(c, 0, v)
		if gathered == nil {
			return algebra.Undef{}
		}
		return algebra.Tuple(gathered)
	case term.Scatter:
		var parts []algebra.Value
		if c.Rank() == 0 {
			list, ok := algebra.Boxed(v).(algebra.Tuple)
			if !ok {
				panic(fmt.Sprintf("core: scatter needs a list on the first processor, got %v", v))
			}
			parts = []algebra.Value(list)
		}
		return coll.Scatter(c, 0, parts)
	case term.Comcast:
		if st.CostOptimal {
			return coll.Comcast(c, 0, st.Ops, v)
		}
		return coll.BcastRepeat(c, 0, st.Ops, v)
	case term.Iter:
		return coll.Iter(c, st.Op, v)
	case term.Halo:
		if st.H.Isomorphic() {
			return coll.HaloExchange(c, st.H.Offsets, v)
		}
		return coll.HaloExchangeLists(c, st.H.Lists, v)
	case term.AllGatherV:
		return coll.AllGatherV(c, st.Counts, v)
	case term.ReduceScatterV:
		return coll.ReduceScatterV(c, st.Op, st.Counts, v)
	}
	panic(fmt.Sprintf("core: cannot execute stage %T", s))
}
