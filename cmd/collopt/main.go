// Command collopt is the optimizer front-end: it parses a program in the
// paper's notation, lists the applicable optimization rules with their
// cost estimates, applies the cost-guided rewriting, verifies the result
// against the original program and prints the outcome.
//
// Usage:
//
//	collopt [flags] "scan(*) ; reduce(+)"
//	echo "scan(*) ; reduce(+)" | collopt [flags] -prog -
//
// Flags:
//
//	-ts N     message start-up time (default 1000)
//	-tw N     per-word transfer time (default 1)
//	-p N      number of processors (default 64)
//	-m N      block size in words (default 64)
//	-prog P   the program; "-" reads it from stdin (alternative to the
//	          positional argument, for shell pipelines)
//	-all      apply every applicable rule, ignoring the cost estimates
//	-search   optimize with the global plan search (bounded
//	          branch-and-bound over all rule-application sequences,
//	          never worse than greedy); when the searched plan beats the
//	          greedy one, the derivation diff is printed
//	-select   auto-select collective algorithms: rewrites are scored with
//	          the calibrated portfolio model (docs/ALGORITHMS.md) and the
//	          chosen algorithm of every eligible reduction is printed;
//	          composes with -search
//	-verify   check the rewriting on random inputs (default true)
//	-rules    print the rule catalog and exit
//	-mpi      parse the program in the paper's MPI notation
//	-emit-mpi render the optimized program as MPI-like pseudocode
//	-explain  render applications in the paper's rule format
//
//	-cpuprofile FILE / -memprofile FILE  write runtime/pprof profiles of
//	                   the run (see docs/PERF.md)
//
//	-params-file FILE  use the calibrated ts/tw from a collbench -calibrate
//	                   report, so the cost-guided decisions reflect this
//	                   machine instead of the defaults
//
// Example:
//
//	$ collopt -ts 1000 -m 16 "bcast ; scan(+) ; scan(+)"
//	applied BSS-Comcast @0: bcast ; scan(+) ; scan(+)  =>  bcast; map# repeat(op_comp_bss(+))
//	...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/algebra"
	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/prof"
	"repro/internal/rules"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run executes the CLI and returns the process exit code; factored out of
// main so the command is testable.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("collopt", flag.ContinueOnError)
	fs.SetOutput(stderr)
	ts := fs.Float64("ts", 1000, "message start-up time")
	tw := fs.Float64("tw", 1, "per-word transfer time")
	p := fs.Int("p", 64, "number of processors")
	m := fs.Int("m", 64, "block size in words")
	all := fs.Bool("all", false, "apply every applicable rule, ignoring cost estimates")
	search := fs.Bool("search", false, "optimize with the global plan search instead of the greedy engine")
	selectAlgos := fs.Bool("select", false, "auto-select collective algorithms from the calibrated portfolio")
	verify := fs.Bool("verify", true, "verify the rewriting on random inputs")
	catalog := fs.Bool("rules", false, "print the rule catalog and exit")
	mpi := fs.Bool("mpi", false, "parse the program in the paper's MPI notation instead of the compact one")
	emitMPI := fs.Bool("emit-mpi", false, "render the optimized program as MPI-like pseudocode")
	explain := fs.Bool("explain", false, "render applications in the paper's rule format")
	progFlag := fs.String("prog", "", `the program; "-" reads it from stdin`)
	paramsFile := fs.String("params-file", "", "load calibrated ts/tw from a collbench -calibrate report")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stopProf, err := prof.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintf(stderr, "collopt: %v\n", err)
		return 2
	}
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(stderr, "collopt: %v\n", err)
		}
	}()
	calibrated := ""
	if *paramsFile != "" {
		rep, err := calib.ReadReport(*paramsFile)
		if err != nil {
			fmt.Fprintf(stderr, "collopt: %v\n", err)
			return 1
		}
		*ts, *tw = rep.Fit.Ts, rep.Fit.Tw
		calibrated = fmt.Sprintf(" (calibrated from %s)", *paramsFile)
	}
	if *catalog {
		fmt.Fprint(stdout, rules.Catalog(true))
		return 0
	}

	src := ""
	switch {
	case *progFlag != "" && fs.NArg() > 0:
		fmt.Fprintln(stderr, "collopt: give the program either positionally or via -prog, not both")
		return 2
	case *progFlag == "-":
		data, err := io.ReadAll(stdin)
		if err != nil {
			fmt.Fprintf(stderr, "collopt: reading stdin: %v\n", err)
			return 1
		}
		src = string(data)
	case *progFlag != "":
		src = *progFlag
	case fs.NArg() == 1:
		src = fs.Arg(0)
	default:
		fmt.Fprintln(stderr, "usage: collopt [flags] \"scan(*) ; reduce(+)\"")
		fmt.Fprintln(stderr, "       echo \"scan(*) ; reduce(+)\" | collopt [flags] -prog -")
		fs.PrintDefaults()
		return 2
	}
	parse := lang.Parse
	if *mpi {
		parse = lang.ParseMPI
	}
	// The generator fns ride along so the documented sparse examples
	// (map inc, map inc_t after a halo) parse from the shell too.
	syms := lang.NewSymbols()
	syms.DefineFn(rules.IncFn)
	syms.DefineFn(rules.IncTupFn)
	t, err := parse(src, syms)
	if err != nil {
		fmt.Fprintf(stderr, "collopt: parse error: %v\n", err)
		return 1
	}
	prog := core.FromTerm(t)
	mach := core.Machine{Ts: *ts, Tw: *tw, P: *p, M: *m}

	fmt.Fprintf(stdout, "program:  %s\n", prog)
	fmt.Fprintf(stdout, "machine:  ts=%.4g tw=%.4g p=%d m=%d%s\n", *ts, *tw, *p, *m, calibrated)
	fmt.Fprintf(stdout, "estimate: %.0f\n\n", prog.Estimate(mach))

	apps := prog.Applicable(mach)
	if len(apps) == 0 && !*selectAlgos {
		fmt.Fprintln(stdout, "no optimization rule applies")
		return 0
	}
	if len(apps) > 0 {
		fmt.Fprintln(stdout, "applicable rules:")
		for _, a := range apps {
			verdict := "improves"
			if a.CostAfter >= a.CostBefore {
				verdict = "does not improve"
			}
			fmt.Fprintf(stdout, "  %-14s @%d  %10.0f -> %10.0f  (%s)\n",
				a.Rule, a.Pos, a.CostBefore, a.CostAfter, verdict)
		}
		fmt.Fprintln(stdout)
	}

	var opt core.Optimization
	switch {
	case *all:
		opt = prog.OptimizeExhaustively(algebra.Default(), mach)
	case *search:
		opt, _ = prog.OptimizeOpts(mach, core.OptimizeOptions{Search: true, Auto: *selectAlgos})
		fmt.Fprintf(stdout, "plan search: %d nodes, %d memo hits, %d pruned, exhausted=%v\n",
			opt.Search.Nodes, opt.Search.MemoHits, opt.Search.Pruned, opt.Search.Exhausted)
		if opt.Search.Improved() {
			// The derivation diff: what the greedy engine would have done
			// and what the search found instead.
			greedy, _ := prog.OptimizeOpts(mach, core.OptimizeOptions{Auto: *selectAlgos})
			fmt.Fprintf(stdout, "search beats greedy: %.0f -> %.0f (gain %.0f)\n",
				greedy.EstimateAfter, opt.Search.BestCost, greedy.EstimateAfter-opt.Search.BestCost)
			fmt.Fprintln(stdout, "greedy derivation (forfeited):")
			for _, a := range greedy.Applications {
				fmt.Fprintf(stdout, "  - %s\n", a)
			}
			fmt.Fprintf(stdout, "  = %s\n", greedy.Program)
			fmt.Fprintln(stdout, "search derivation (taken):")
			for _, a := range opt.Applications {
				fmt.Fprintf(stdout, "  + %s\n", a)
			}
			fmt.Fprintf(stdout, "  = %s\n", opt.Program)
		} else {
			fmt.Fprintln(stdout, "search agrees with the greedy plan")
		}
		fmt.Fprintln(stdout)
	default:
		opt, _ = prog.OptimizeOpts(mach, core.OptimizeOptions{Auto: *selectAlgos})
	}
	if *selectAlgos {
		if len(opt.Selection) == 0 {
			fmt.Fprintln(stdout, "selection: no eligible reduction stages (elementwise, unbalanced)")
		} else {
			fmt.Fprintln(stdout, "selected algorithms:")
			for _, sl := range opt.Selection {
				fmt.Fprintf(stdout, "  %s\n", sl)
			}
		}
		fmt.Fprintln(stdout)
	}
	if len(opt.Applications) == 0 {
		fmt.Fprintln(stdout, "cost-guided engine: no profitable rewrite at these parameters")
		return 0
	}
	for _, a := range opt.Applications {
		if *explain {
			fmt.Fprint(stdout, rules.FormatApplication(a))
		} else {
			fmt.Fprintf(stdout, "applied %s\n", a)
		}
	}
	fmt.Fprintf(stdout, "\noptimized: %s\n", opt.Program)
	fmt.Fprintf(stdout, "estimate:  %.0f -> %.0f (%.2fx)\n",
		opt.EstimateBefore, opt.EstimateAfter, opt.EstimateBefore/opt.EstimateAfter)
	if *emitMPI {
		fmt.Fprintf(stdout, "\nMPI-like pseudocode:\n%s", lang.FormatMPI(opt.Program.Term()))
	}

	if *verify {
		cfg := rules.VerifyConfig{Seed: 1, BlockWords: 4}
		// A rule that needs p = 2^k is verified on its domain.
		for _, a := range opt.Applications {
			if r, ok := rules.ByName(a.Rule); ok && r.NeedsPow2() {
				cfg.Pow2Only = true
			}
		}
		if err := prog.Verify(opt.Program, cfg); err != nil {
			fmt.Fprintf(stderr, "collopt: VERIFICATION FAILED: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, "verified:  original and optimized programs agree on random inputs")
	}
	return 0
}
