package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll/sel"
	"repro/internal/cost"
	"repro/internal/machine"
	"repro/internal/rules"
	"repro/internal/term"
)

// Program is a parallel program in the functional framework: a forward
// composition of local and collective stages. The zero value is the empty
// program; stages are appended with the builder methods, each of which
// returns a new Program (programs are immutable values).
type Program struct {
	// t is the flat stage list, a term.Seq boxed once when the program is
	// built, so Term allocates nothing; nil for the zero Program.
	t term.Term
	// sels are the algorithm selections of the optimization that produced
	// this program (OptimizeOptions.Auto), honored by every Run method so
	// a program executes what its estimate priced. They address stages by
	// index, so every builder method, changing the stage list, drops them.
	sels []sel.Selection
	// exec is the program compiled for the stage loop, on its first run.
	// The cell is allocated with the stage list, so copies of a Program
	// share one compilation and every builder method starts a fresh one.
	exec *compiled
}

// NewProgram returns the empty program.
func NewProgram() Program { return Program{} }

// FromTerm wraps an existing term as a Program.
func FromTerm(t term.Term) Program { return built(term.Compose(t)) }

// built is the program of stages, with a fresh compilation cell.
func built(stages term.Seq) Program { return Program{t: stages, exec: new(compiled)} }

// Term returns the program's term; it allocates nothing.
func (p Program) Term() term.Term {
	if p.t == nil {
		return term.Seq(nil) // boxing a nil slice allocates nothing
	}
	return p.t
}

// stages is the program's flat stage list.
func (p Program) stages() term.Seq {
	s, _ := p.t.(term.Seq)
	return s
}

// String renders the program in the paper's notation.
func (p Program) String() string {
	if len(p.stages()) == 0 {
		return "id"
	}
	return p.stages().String()
}

func (p Program) with(t term.Term) Program {
	s := p.stages()
	out := make(term.Seq, len(s), len(s)+1)
	copy(out, s)
	return built(append(out, t))
}

// Map appends a local stage map f.
func (p Program) Map(f *term.Fn) Program { return p.with(term.Map{F: f}) }

// MapIdx appends an index-aware local stage map# f.
func (p Program) MapIdx(f *term.IdxFn) Program { return p.with(term.MapIdx{F: f}) }

// Scan appends scan(op).
func (p Program) Scan(op *algebra.Op) Program { return p.with(term.Scan{Op: op}) }

// Reduce appends reduce(op) (result on the first processor).
func (p Program) Reduce(op *algebra.Op) Program { return p.with(term.Reduce{Op: op}) }

// AllReduce appends allreduce(op).
func (p Program) AllReduce(op *algebra.Op) Program {
	return p.with(term.Reduce{Op: op, All: true})
}

// ReduceBalanced appends the balanced reduction of §3.2, which tolerates
// non-associative operators such as op_sr (the operator must provide the
// one-sided case).
func (p Program) ReduceBalanced(op *algebra.Op) Program {
	return p.with(term.Reduce{Op: op, Balanced: true})
}

// AllReduceBalanced appends the balanced all-reduction of §3.2.
func (p Program) AllReduceBalanced(op *algebra.Op) Program {
	return p.with(term.Reduce{Op: op, All: true, Balanced: true})
}

// ScanBalanced appends the balanced scan of §3.3.
func (p Program) ScanBalanced(op *algebra.BalancedScanOp) Program {
	return p.with(term.ScanBal{Op: op})
}

// Comcast appends the compute-after-broadcast collective of §3.4;
// costOptimal selects the successive-doubling implementation instead of
// bcast + repeat.
func (p Program) Comcast(ops *algebra.RepeatOps, costOptimal bool) Program {
	return p.with(term.Comcast{Ops: ops, CostOptimal: costOptimal})
}

// Iter appends the local iteration schema of §3.5.
func (p Program) Iter(op *algebra.IterOp) Program {
	return p.with(term.Iter{Op: op})
}

// Bcast appends a broadcast from the first processor.
func (p Program) Bcast() Program { return p.with(term.Bcast{}) }

// Then concatenates two programs — the program-composition source of
// optimization opportunities from §2.1.
func (p Program) Then(q Program) Program {
	return FromTerm(term.Compose(p.Term(), q.Term()))
}

// Optimization reports what Optimize did.
type Optimization struct {
	// Program is the rewritten program.
	Program Program
	// Applications are the rule applications, in order.
	Applications []rules.Application
	// EstimateBefore and EstimateAfter are cost estimates of the whole
	// program on the target machine.
	EstimateBefore, EstimateAfter float64
	// Search carries the plan-search statistics when the optimization ran
	// the plan search (OptimizeOptions.Search); nil for greedy.
	Search *rules.SearchStats
	// Selection records the per-stage algorithm choices when the
	// optimization ran with auto-selection (OptimizeOptions.Auto); the
	// estimates then use the portfolio model (cost.OfTermAuto), and
	// Program carries the selections into its Run methods. Nil without
	// auto-selection.
	Selection []sel.Selection
}

// Summary renders the optimization as a short report.
func (o Optimization) Summary() string {
	var b strings.Builder
	for _, a := range o.Applications {
		fmt.Fprintf(&b, "applied %s\n", a)
	}
	for _, s := range o.Selection {
		fmt.Fprintf(&b, "selected %s\n", s)
	}
	fmt.Fprintf(&b, "estimate: %.0f -> %.0f (%.2fx)\n",
		o.EstimateBefore, o.EstimateAfter, o.EstimateBefore/o.EstimateAfter)
	return b.String()
}

// OptimizeOptions selects the optimizer variant for OptimizeOpts; the
// zero value is the plain greedy engine.
type OptimizeOptions struct {
	// Search runs the global plan search (rules.SearchOptimize) instead
	// of the greedy engine, under rules.SearchConfig's default budgets.
	Search bool
	// Auto enables collective-algorithm auto-selection: rewrites are
	// scored with the portfolio model (cost.OfTermAuto), the estimates
	// use it, and the result records the per-stage selections picked for
	// the optimized program (see coll/sel).
	Auto bool
	// Verifier, when non-nil, checks the derivation before returning:
	// every rule application and the end-to-end equality under the
	// functional semantics (rules.Verifier.CheckDerivation). A caller that
	// optimizes many programs passes the same Verifier each time, and rule
	// instances it has seen are not evaluated again.
	Verifier *rules.Verifier
	// VerifyConfig configures the verification runs.
	VerifyConfig rules.VerifyConfig
	// Registry overrides the algebraic property registry; nil means
	// algebra.Default().
	Registry *algebra.Registry
}

// OptimizeOpts is the optimizer entry point (Optimize is its zero-options
// call). The error is non-nil only when verification is requested and
// fails.
func (p Program) OptimizeOpts(m Machine, o OptimizeOptions) (Optimization, error) {
	eng := rules.NewCostGuidedEngine(m.costParams())
	if o.Registry != nil {
		eng.Env.Reg = o.Registry
	}
	eng.Auto = o.Auto
	var (
		opt   term.Term
		apps  []rules.Application
		stats *rules.SearchStats
	)
	if o.Search {
		var st rules.SearchStats
		opt, apps, st = eng.SearchOptimize(p.Term(), rules.SearchConfig{})
		stats = &st
	} else {
		opt, apps = eng.Optimize(p.Term())
	}
	if o.Verifier != nil {
		if err := o.Verifier.CheckDerivation(p.Term(), opt, apps, o.VerifyConfig); err != nil {
			return Optimization{}, err
		}
	}
	score := cost.OfTerm
	if o.Auto {
		score = cost.OfTermAuto
	}
	res := Optimization{
		Program:        FromTerm(opt),
		Applications:   apps,
		EstimateBefore: score(p.Term(), m.costParams()),
		EstimateAfter:  score(opt, m.costParams()),
		Search:         stats,
	}
	if o.Auto {
		res.Selection = sel.ForTerm(opt, m.costParams())
		res.Program.sels = res.Selection // before the program's first run compiles them in
	}
	return res, nil
}

// Optimize rewrites the program with the cost-guided engine: a rule is
// applied only where the Table 1-style estimates predict an improvement on
// machine m. It is OptimizeOpts with the zero options — greedy, butterfly
// pricing, unverified, algebra.Default's operator properties; search,
// auto-selection, verification and a custom registry are OptimizeOptions
// fields.
func (p Program) Optimize(m Machine) Optimization {
	o, _ := p.OptimizeOpts(m, OptimizeOptions{})
	return o
}

// OptimizeExhaustively rewrites with every applicable rule regardless of
// the cost estimates (the purely algebraic view of §3). The machine
// supplies the processor count the Local rules need and the parameters
// the before/after estimates are quoted at.
func (p Program) OptimizeExhaustively(reg *algebra.Registry, m Machine) Optimization {
	eng := rules.NewEngine()
	eng.Env.Reg = reg
	eng.Env.P = m.P
	opt, apps := eng.Optimize(p.Term())
	return Optimization{
		Program:        FromTerm(opt),
		Applications:   apps,
		EstimateBefore: cost.OfTerm(p.Term(), m.costParams()),
		EstimateAfter:  cost.OfTerm(opt, m.costParams()),
	}
}

// Applicable lists the rule applications available in the program without
// rewriting, with cost estimates for machine m.
func (p Program) Applicable(m Machine) []rules.Application {
	eng := rules.NewCostGuidedEngine(m.costParams())
	return eng.Applicable(p.Term())
}

// Estimate predicts the program's run time on machine m under the
// butterfly cost model of §4.
func (p Program) Estimate(m Machine) float64 {
	return cost.OfTerm(p.Term(), m.costParams())
}

// Run executes the program on a virtual machine with m.P processors and
// returns the output list and the machine result; Result.Makespan is the
// measured run time under the cost model. Like every Run method it panics
// unless input holds one value per processor, and runs the algorithm
// selections the program carries (see Optimization.Selection).
func (p Program) Run(m Machine, input []algebra.Value) ([]algebra.Value, machine.Result) {
	return p.runVirtual(m.virtual(), input)
}

// RunTraced is Run with an event trace collected for timeline rendering.
func (p Program) RunTraced(m Machine, input []algebra.Value) ([]algebra.Value, machine.Result, []machine.Event) {
	vm := m.virtual()
	tr := machine.NewTracer()
	vm.SetTracer(tr)
	out, res := p.runVirtual(vm, input)
	return out, res, tr.Events()
}

// compiled returns the program compiled for the stage loop, compiling it
// on the first call; safe under concurrent runs of copies of p.
func (p Program) compiled() *compiled {
	cp := p.exec
	if cp == nil { // the zero Program: no cell to share, no stages to compile
		cp = new(compiled)
	}
	cp.once.Do(func() {
		cp.stages = p.stages().Flat()
		cp.choices = choicesOf(len(cp.stages), p.sels)
		cp.labels = make([]string, len(cp.stages))
		for i, s := range cp.stages {
			cp.labels[i] = s.String()
		}
	})
	return cp
}

// checkInput panics unless input holds one value per processor.
func checkInput(input []algebra.Value, procs int) {
	if len(input) != procs {
		panic(fmt.Sprintf("core: input length %d does not match machine size %d", len(input), procs))
	}
}

// runVirtual runs the program SPMD-style on the virtual machine: one
// goroutine per processor, each stage realized by the corresponding
// collective from package coll, with communication and computation
// charged to the virtual clocks.
func (p Program) runVirtual(vm *machine.Machine, input []algebra.Value) ([]algebra.Value, machine.Result) {
	checkInput(input, vm.P)
	out := make([]algebra.Value, vm.P)
	cp := p.compiled()
	res := vm.Run(func(pr *machine.Proc) {
		out[pr.Rank()] = cp.run(pr, input[pr.Rank()])
	})
	return out, res
}

// RunNative executes the program on the native backend with procs ranks
// and returns the output list and the wall-clock result. The outputs are
// bit-identical to Run's — both backends execute the same collective
// algorithms in the same combining order — only the notion of time
// differs.
func (p Program) RunNative(procs int, input []algebra.Value) ([]algebra.Value, backend.Result) {
	return p.RunOn(backend.New(procs), input)
}

// RunOn is RunNative with a caller-configured machine (timeout, injected
// start-up latency, transport): one real goroutine per rank, every stage
// realized by the same collectives as on the virtual machine but with
// wall-clock timing — Result.Makespan is the host's measured run time from
// the barrier-synchronized start to the last rank's finish. The outputs
// are boxed (RunStages) and may be views of the ranks' arenas: they are
// valid until this machine's next run, and a caller that keeps one longer
// copies it.
//
// A warm run of a benchmark program allocates its output list and the 3 of
// backend.Machine.Run's Result, and nothing more (TestWarmLocalStageAllocs):
// the rank body comes from a pool with its closure bound and the stages
// draw from the ranks' arenas. What else a run can allocate is a boxing:
// of a flat tuple that ends the program, and of π₁ of a flat tuple whose
// blocks are too long to copy (coll.First).
func (p Program) RunOn(nm *backend.Machine, input []algebra.Value) ([]algebra.Value, backend.Result) {
	checkInput(input, nm.P)
	r := runners.Get().(*runner)
	r.cp, r.in, r.out = p.compiled(), input, make([]algebra.Value, nm.P)
	res := nm.Run(r.body)
	out := r.out
	r.cp, r.in, r.out = nil, nil, nil
	runners.Put(r)
	return out, res
}

// runner is RunOn's rank body for one run, pooled with its closure bound
// once, so a run allocates none.
type runner struct {
	cp      *compiled
	in, out []algebra.Value
	body    func(*backend.Proc)
}

var runners = sync.Pool{New: func() any {
	r := new(runner)
	r.body = r.run
	return r
}}

func (r *runner) run(pr *backend.Proc) { r.out[pr.Rank()] = r.cp.run(pr, r.in[pr.Rank()]) }

// Verify checks that this program and q are semantically equivalent by
// evaluating both under the functional semantics on randomized inputs
// (comparing modulo undetermined positions). Use it to validate an
// optimization end to end.
func (p Program) Verify(q Program, cfg rules.VerifyConfig) error {
	return rules.VerifyEquivalence(p.Term(), q.Term(), cfg)
}
