// Command collchaos drives the fault-injection conformance harness from
// the shell: programs over the rule grammar run on the chaos-wrapped
// native backend — per-link delays, bounded reorder, duplicates, one-shot
// drops with retransmission — and their results are compared bitwise
// against a fault-free run and, modulo undetermined positions, against
// the functional semantics.
//
// Usage:
//
//	collchaos -rules                        sweep every rule's LHS and RHS
//	collchaos -prog "bcast ; scan(+)"       run one program (reproducers)
//	collchaos                               randomized program sweep
//
// Common flags: -p ranks, -m words per block, -profile NAME|all, -seed
// BASE, -seeds COUNT (seeds BASE..BASE+COUNT-1), -trials N random
// programs, -v to report every run instead of just failures. A failing
// randomized or explicit run is shrunk to a minimal case and reported as
// a replayable -prog command line, so a CI failure pastes straight back
// into a terminal.
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

	"repro/internal/algebra"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/exper"
	"repro/internal/lang"
	"repro/internal/mpbackend"
	"repro/internal/rules"
	"repro/internal/term"
)

func main() {
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
		verbose  = fs.Bool("v", false, "report every run, not just failures")
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

// check runs one case and returns the first divergence (or hang, surfaced
// as a panic) as an error.
func (h *harness) check(c chaos.Case) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	h.runs++
	in := mpbackend.ConformanceInputs(c.Prog, c.P, c.M)
	want, _ := core.FromTerm(c.Prog).RunNative(c.P, in)
	got := chaos.RunNative(c.Prog, c.P, c.Profile, c.Seed, in)
	sem := term.Eval(c.Prog, in)
	for r := 0; r < c.P; r++ {
		if !algebra.Equal(want[r], got[r]) {
			return fmt.Errorf("rank %d: chaos %v, fault-free %v", r, got[r], want[r])
		}
		if !algebra.EqualApproxModuloUndef(sem[r], got[r], 1e-9) {
			return fmt.Errorf("rank %d: chaos %v, semantics %v", r, got[r], sem[r])
		}
	}
	return nil
}

// sweep checks one program across the profile and seed ranges; on
// failure it shrinks and reports the minimal reproducer.
func (h *harness) sweep(label string, prog term.Seq, p int) bool {
	for _, prof := range h.profiles {
		for s := h.seed; s < h.seed+int64(h.seeds); s++ {
			c := chaos.Case{Prog: prog, P: p, M: h.m, Profile: prof, Seed: s}
			err := h.check(c)
			if err == nil {
				if h.verbose {
					fmt.Fprintf(h.out, "ok   %-18s %s/seed=%d p=%d m=%d\n", label, prof.Name, s, p, h.m)
				}
				continue
			}
			fmt.Fprintf(h.out, "FAIL %s under %s/seed=%d: %v\n", label, prof.Name, s, err)
			min := chaos.Shrink(c, func(cand chaos.Case) bool { return h.check(cand) != nil })
			fmt.Fprintf(h.out, "  minimal: %s\n  replay:  %s\n", min, min.Repro())
			return false
		}
	}
	return true
}

// ruleLHS is one rule's left-hand side for the -rules sweep. Sizes, when
// set, pins the machine sizes the program runs at (counts vectors only
// run at their own length); nil means the class-default sweep.
type ruleLHS struct {
	Rule  string
	LHS   term.Seq
	Sizes []int
}

// extensionLHS are the extension and sparse rules' left-hand sides (the
// Table 1 patterns cover the paper rules).
func extensionLHS() []ruleLHS {
	counts4 := []int{2, 0, 1, 1}
	counts6 := []int{0, 3, 0, 1, 2, 0}
	return []ruleLHS{
		{Rule: "RB-AllReduce", LHS: term.Seq{term.Reduce{Op: algebra.Add}, term.Bcast{}}},
		{Rule: "AB-AllReduce", LHS: term.Seq{term.Reduce{Op: algebra.Add, All: true}, term.Bcast{}}},
		{Rule: "BB-Bcast", LHS: term.Seq{term.Bcast{}, term.Bcast{}}},
		{Rule: "BM-Mobility", LHS: term.Seq{term.Bcast{}, term.Map{F: rules.IncFn}}},
		{Rule: "MM-Local", LHS: term.Seq{term.Map{F: rules.IncFn}, term.Map{F: rules.IncFn}}},
		{Rule: "GS-Id", LHS: term.Seq{term.Gather{}, term.Scatter{}}},
		{Rule: "SG-Id", LHS: term.Seq{term.Scatter{}, term.Gather{}}},
		{Rule: "HH-Combine", LHS: term.Seq{
			term.Halo{H: &term.Hood{Offsets: []int{1, 2}}},
			term.Halo{H: &term.Hood{Offsets: []int{0, 3}}},
		}},
		{Rule: "MH-Mobility", LHS: term.Seq{
			term.Map{F: rules.IncFn},
			term.Halo{H: &term.Hood{Offsets: []int{-1, 1}}},
		}},
		{Rule: "RSAG-AllReduce", Sizes: []int{4}, LHS: term.Seq{
			term.ReduceScatterV{Op: algebra.Add, Counts: counts4},
			term.AllGatherV{Counts: counts4},
		}},
		{Rule: "RSAG-AllReduce", Sizes: []int{6}, LHS: term.Seq{
			term.ReduceScatterV{Op: algebra.Max, Counts: counts6},
			term.AllGatherV{Counts: counts6},
		}},
	}
}

// runRules sweeps every rule's LHS and rewritten RHS, Table 1 and
// extensions alike, on power-of-two and (where the rule allows)
// non-power-of-two sizes.
func (h *harness) runRules() int {
	var jobs []ruleLHS
	for _, pat := range exper.Patterns() {
		jobs = append(jobs, ruleLHS{Rule: pat.Rule, LHS: term.Compose(pat.LHS.Term())})
	}
	jobs = append(jobs, extensionLHS()...)
	failures := 0
	for _, j := range jobs {
		r, ok := rules.ByName(j.Rule)
		if !ok {
			fmt.Fprintf(h.out, "FAIL no rule named %s\n", j.Rule)
			failures++
			continue
		}
		sizes := j.Sizes
		if sizes == nil {
			sizes = []int{4, 8}
			if r.Class != "Local" {
				sizes = []int{4, 6}
			}
		}
		for _, p := range sizes {
			opt, err := exper.ApplyRule(j.Rule, j.LHS, p)
			if err != nil {
				fmt.Fprintf(h.out, "FAIL %v\n", err)
				failures++
				continue
			}
			if !h.sweep(j.Rule+"/lhs", j.LHS, p) {
				failures++
			}
			if rhs := term.Compose(opt); len(rhs) > 0 {
				if !h.sweep(j.Rule+"/rhs", rhs, p) {
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
