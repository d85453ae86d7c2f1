package core_test

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/rules"
)

// ExampleProgram_Optimize shows the basic workflow: build a program of
// collective operations, let the cost-guided engine rewrite it for a
// start-up-dominated machine, and inspect the result.
func ExampleProgram_Optimize() {
	prog := core.NewProgram().Scan(algebra.Mul).Reduce(algebra.Add)
	mach := core.Machine{Ts: 1000, Tw: 1, P: 64, M: 16}

	opt := prog.Optimize(mach)
	fmt.Println(opt.Program)
	fmt.Println(opt.Applications[0].Rule)
	// Output:
	// map pair ; reduce(op_sr2(*,+)) ; map pi_1
	// SR2-Reduction
}

// ExampleProgram_Run executes a program on the virtual machine; the
// Makespan is the run time under the paper's §4.1 cost model.
func ExampleProgram_Run() {
	prog := core.NewProgram().Bcast().Scan(algebra.Add)
	mach := core.Machine{Ts: 100, Tw: 1, P: 4}

	in := []algebra.Value{
		algebra.Scalar(5), algebra.Scalar(0), algebra.Scalar(0), algebra.Scalar(0),
	}
	out, res := prog.Run(mach, in)
	fmt.Println(out)
	fmt.Println(res.Makespan)
	// Output:
	// [5 10 15 20]
	// 408
}

// ExampleProgram_Verify checks a rewriting by randomized testing of the
// functional semantics.
func ExampleProgram_Verify() {
	lhs := core.NewProgram().Bcast().Scan(algebra.Add).Scan(algebra.Add)
	opt := lhs.OptimizeExhaustively(algebra.Default(), core.Machine{})

	err := lhs.Verify(opt.Program, rules.VerifyConfig{Seed: 1})
	fmt.Println(opt.Program)
	fmt.Println(err)
	// Output:
	// bcast; map# repeat(op_comp_bss(+))
	// <nil>
}

// ExampleProgram_Applicable lists the rewriting opportunities without
// committing to any — the menu the programmer chooses from.
func ExampleProgram_Applicable() {
	prog := core.NewProgram().Bcast().Scan(algebra.Add).Scan(algebra.Add)
	mach := core.Machine{Ts: 1000, Tw: 1, P: 16, M: 8}

	for _, a := range prog.Applicable(mach) {
		fmt.Printf("%s at stage %d\n", a.Rule, a.Pos)
	}
	// Output:
	// BSS-Comcast at stage 0
	// BS-Comcast at stage 0
	// SS-Scan at stage 1
}
