// Command collchaos drives the conformance oracle (chaos.Sweep) from the
// shell: programs over the rule grammar run on the virtual, native and
// multi-process machines and on the chaos-wrapped native and virtual ones
// — per-link delays, bounded reorder, duplicates, one-shot drops with
// retransmission — and every leg must return the fault-free native
// backend's results bit for bit, and those the functional semantics'
// wherever it determines a value.
//
// Usage:
//
//	collchaos -rules                        sweep every rule's LHS and RHS
//	collchaos -prog "bcast ; scan(+)"       run one program (reproducers)
//	collchaos                               randomized program sweep
//
// Common flags: -p ranks, -m words per block, -profile NAME|all, -seed
// BASE, -seeds COUNT (seeds BASE..BASE+COUNT-1), -trials N random
// programs, -v to report every swept program instead of just failures.
// A failing randomized or explicit run is shrunk to a minimal case and
// reported as a replayable -prog command line, so a CI failure pastes
// straight back into a terminal.
//
// Exit status: 0 all runs conformed, 1 a divergence or hang was found,
// 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"repro/internal/chaos"
	"repro/internal/exper"
	"repro/internal/lang"
	"repro/internal/mpbackend"
	"repro/internal/rules"
	"repro/internal/term"
)

func main() {
	mpbackend.MaybeWorker()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns the process exit code; factored out of
// main so the command is testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("collchaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		p        = fs.Int("p", 8, "number of ranks")
		m        = fs.Int("m", 1, "words per block")
		profName = fs.String("profile", "all", "fault profile name, or \"all\"")
		seed     = fs.Int64("seed", 0, "base fault seed")
		seeds    = fs.Int("seeds", 5, "seeds per (program, profile): seed..seed+seeds-1")
		trials   = fs.Int("trials", 20, "random programs in the default sweep")
		rulesRun = fs.Bool("rules", false, "sweep every optimization rule's LHS and RHS")
		progSrc  = fs.String("prog", "", "explicit program to run (surface syntax)")
		verbose  = fs.Bool("v", false, "report every swept program, not just failures")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "collchaos: unexpected arguments %v\n", fs.Args())
		return 2
	}
	profiles, err := resolveProfiles(*profName)
	if err != nil {
		fmt.Fprintf(stderr, "collchaos: %v\n", err)
		return 2
	}
	h := &harness{
		out: stdout, verbose: *verbose,
		p: *p, m: *m, profiles: profiles,
		seed: *seed, seeds: *seeds,
	}
	switch {
	case *progSrc != "":
		return h.runProg(stderr, *progSrc)
	case *rulesRun:
		return h.runRules()
	default:
		return h.runRandom(*trials)
	}
}

func resolveProfiles(name string) ([]chaos.Profile, error) {
	if name == "all" {
		return chaos.Profiles(), nil
	}
	prof, ok := chaos.ByName(name)
	if !ok {
		return nil, fmt.Errorf("no profile named %q (have %v)", name, chaos.Names())
	}
	return []chaos.Profile{prof}, nil
}

type harness struct {
	out      io.Writer
	verbose  bool
	p, m     int
	profiles []chaos.Profile
	seed     int64
	seeds    int
	runs     int
}

// sweep checks one program across the profile and seed ranges with the
// conformance oracle; a failure comes back shrunk, with its replay line.
func (h *harness) sweep(label string, prog term.Seq, p int) bool {
	h.runs += len(h.profiles) * h.seeds
	err := chaos.Sweep(chaos.Case{Prog: prog, P: p, M: h.m, Seed: h.seed, Tol: 1e-9}, h.profiles, h.seeds)
	if err != nil {
		fmt.Fprintf(h.out, "FAIL %s %v\n", label, err)
		return false
	}
	if h.verbose {
		fmt.Fprintf(h.out, "ok   %-18s %d profiles × %d seeds from %d p=%d m=%d\n", label, len(h.profiles), h.seeds, h.seed, p, h.m)
	}
	return true
}

// runRules sweeps every rule's LHS and rewritten RHS, Table 1 and
// extensions alike, at the sizes the pattern's Sizes gives.
func (h *harness) runRules() int {
	failures := 0
	for _, pat := range append(exper.Patterns(), exper.Extensions()...) {
		lhs := term.Compose(pat.LHS.Term())
		for _, p := range pat.Sizes() {
			opt, err := exper.ApplyRule(pat.Rule, lhs, p)
			if err != nil {
				fmt.Fprintf(h.out, "FAIL %v\n", err)
				failures++
				continue
			}
			if !h.sweep(pat.Rule+"/lhs", lhs, p) {
				failures++
			}
			if rhs := term.Compose(opt); len(rhs) > 0 {
				if !h.sweep(pat.Rule+"/rhs", rhs, p) {
					failures++
				}
			}
		}
	}
	return h.summary(failures)
}

// runProg parses and sweeps one explicit program — the replay mode the
// shrinker's reproducer lines point at.
func (h *harness) runProg(stderr io.Writer, src string) int {
	syms := lang.NewSymbols()
	syms.DefineFn(rules.IncFn)
	syms.DefineFn(rules.IncTupFn)
	t, err := lang.Parse(src, syms)
	if err != nil {
		fmt.Fprintf(stderr, "collchaos: bad -prog: %v\n", err)
		return 2
	}
	failures := 0
	if !h.sweep("prog", term.Compose(t), h.p) {
		failures++
	}
	return h.summary(failures)
}

// runRandom is the default mode: random programs from the shared
// generator, profiles round-robin.
func (h *harness) runRandom(trials int) int {
	rng := rand.New(rand.NewSource(h.seed + 1))
	failures := 0
	for trial := 0; trial < trials; trial++ {
		// Every third trial draws from the sparse grammar — halo chains
		// and V-collectives with counts pinned to the machine size.
		prog := rules.RandProgram(rng, 6)
		label := fmt.Sprintf("random#%d", trial)
		if trial%3 == 2 {
			prog = rules.RandSparseProgram(rng, h.p)
			label = fmt.Sprintf("sparse#%d", trial)
		}
		if !h.sweep(label, prog, h.p) {
			failures++
		}
	}
	return h.summary(failures)
}

func (h *harness) summary(failures int) int {
	if failures > 0 {
		fmt.Fprintf(h.out, "collchaos: %d failure(s) in %d runs\n", failures, h.runs)
		return 1
	}
	fmt.Fprintf(h.out, "collchaos: all %d runs conformed (%d profiles, %d seeds)\n",
		h.runs, len(h.profiles), h.seeds)
	return 0
}
