package rules

import (
	"flag"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/term"
)

// The oracle is the plan search and the greedy engine as they were before
// the matches of a program were derived from its parent's: every node
// re-tried every (position × rule) pair and priced every match, and greedy
// restarted from stage 0 after each rewrite. The code below is that code,
// verbatim but for the receiver: oracle's methods are the old Engine's,
// oracleSearcher's the old searcher's.
type oracle struct{ *Engine }

func (e oracle) rules() []Rule {
	if e.Rules != nil {
		return e.Rules
	}
	return defaultRules
}

func (e oracle) nextMatch(stages []term.Term, rs []Rule, from int) (Application, int, bool) {
	for k := from; k < len(stages)*len(rs); k++ {
		i, r := k/len(rs), &rs[k%len(rs)]
		if i+r.Window > len(stages) {
			continue
		}
		window := stages[i : i+r.Window]
		repl, ok := r.Try(window, e.Env)
		if !ok {
			continue
		}
		app := Application{
			Rule:   r.Name,
			Pos:    i,
			Before: append([]term.Term(nil), window...),
			After:  repl,
		}
		if e.Params != nil {
			app.CostBefore = e.score(term.Seq(window), *e.Params)
			app.CostAfter = e.score(term.Seq(repl), *e.Params)
		}
		return app, k, true
	}
	return Application{}, 0, false
}

func (e oracle) Step(t term.Term) (term.Term, Application, bool) {
	stages, rs := term.Stages(t), e.rules()
	for app, k, ok := e.nextMatch(stages, rs, 0); ok; app, k, ok = e.nextMatch(stages, rs, k+1) {
		if e.Params != nil && app.CostAfter >= app.CostBefore &&
			!(rs[k%len(rs)].CostNeutral && app.CostAfter == app.CostBefore) {
			continue
		}
		return app.Rewrite(stages), app, true
	}
	return t, Application{}, false
}

func (e oracle) Optimize(t term.Term) (term.Term, []Application) {
	var apps []Application
	for {
		next, app, ok := e.Step(t)
		if !ok {
			return t, apps
		}
		t = next
		apps = append(apps, app)
	}
}

func (e oracle) applicable(stages []term.Term) []Application {
	rs := e.rules()
	var out []Application
	for app, k, ok := e.nextMatch(stages, rs, 0); ok; app, k, ok = e.nextMatch(stages, rs, k+1) {
		out = append(out, app)
	}
	return out
}

func (e oracle) SearchOptimize(t term.Term, cfg SearchConfig) (term.Term, []Application, SearchStats) {
	if e.Params == nil {
		panic("rules: SearchOptimize requires a cost-guided engine (Params set)")
	}
	greedyT, greedyApps := e.Optimize(t)
	gCost := e.score(greedyT, *e.Params)

	s := &oracleSearcher{
		e:    e,
		cfg:  cfg,
		p:    *e.Params,
		memo: make(map[string]oracleMemoEntry),
		best: gCost,
	}
	s.stats.Exhausted = true
	bt, bapps, bcost := s.explore(t, 0)

	s.stats.GreedyCost = gCost
	if bcost >= gCost {
		// The search found nothing better (a budget cut can even hide
		// the greedy path): keep the greedy derivation.
		s.stats.BestCost = gCost
		return greedyT, greedyApps, s.stats
	}
	s.stats.BestCost = bcost
	return bt, bapps, s.stats
}

type oracleMemoEntry struct {
	cost float64
	t    term.Term
	apps []Application
}

type oracleSearcher struct {
	e     oracle
	cfg   SearchConfig
	p     cost.Params
	memo  map[string]oracleMemoEntry
	best  float64 // cheapest end-to-end cost seen anywhere (incumbent)
	stats SearchStats
}

func (s *oracleSearcher) explore(t term.Term, depth int) (term.Term, []Application, float64) {
	key := Canonical(term.Compose(t))
	if m, ok := s.memo[key]; ok {
		s.stats.MemoHits++
		return m.t, m.apps, m.cost
	}

	self := s.e.score(t, s.p)
	if self < s.best {
		s.best = self
	}
	bestT, bestCost := t, self
	var bestApps []Application

	switch {
	case depth >= s.cfg.maxDepth():
		s.stats.Exhausted = false
	case cost.Floor(t, s.p) >= s.best:
		// No derivation from here can beat the incumbent: every rewrite
		// keeps at least the floor's local work.
		s.stats.Pruned++
	default:
		stages := term.Stages(t)
		for _, app := range s.e.applicable(stages) {
			if s.stats.Nodes >= s.cfg.maxNodes() {
				s.stats.Exhausted = false
				break
			}
			s.stats.Nodes++
			ct, capps, ccost := s.explore(app.Rewrite(stages), depth+1)
			if ccost < bestCost {
				bestT, bestCost = ct, ccost
				bestApps = append([]Application{app}, capps...)
				if ccost < s.best {
					s.best = ccost
				}
			}
		}
	}

	s.memo[key] = oracleMemoEntry{cost: bestCost, t: bestT, apps: bestApps}
	return bestT, bestApps, bestCost
}

// sameFloat is bitwise equality: a NaN equals the NaN of the same bits.
func sameFloat(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffDerivation describes how two derivations differ — term (by Canonical)
// and each application's rule, position, canonical window and replacement
// and both prices bitwise — or returns "".
func diffDerivation(gotT, wantT term.Term, got, want []Application) string {
	if g, w := Canonical(term.Compose(gotT)), Canonical(term.Compose(wantT)); g != w {
		return fmt.Sprintf("term %q, oracle %q", g, w)
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d applications %v, oracle %d %v", len(got), got, len(want), want)
	}
	for i, g := range got {
		w := want[i]
		if g.Rule != w.Rule || g.Pos != w.Pos ||
			Canonical(g.Before) != Canonical(w.Before) || Canonical(g.After) != Canonical(w.After) ||
			!sameFloat(g.CostBefore, w.CostBefore) || !sameFloat(g.CostAfter, w.CostAfter) {
			return fmt.Sprintf("application %d: %v (%v → %v), oracle %v (%v → %v)",
				i, g, g.CostBefore, g.CostAfter, w, w.CostBefore, w.CostAfter)
		}
	}
	return ""
}

func diffStats(got, want SearchStats) string {
	if got.Nodes != want.Nodes || got.MemoHits != want.MemoHits || got.Pruned != want.Pruned ||
		got.Exhausted != want.Exhausted || !sameFloat(got.GreedyCost, want.GreedyCost) ||
		!sameFloat(got.BestCost, want.BestCost) {
		return fmt.Sprintf("stats %+v, oracle %+v", got, want)
	}
	return ""
}

// checkAgainstOracle holds e's search and greedy derivation of prog to the
// oracle's.
func checkAgainstOracle(t testing.TB, e *Engine, prog term.Term, cfg SearchConfig) {
	t.Helper()
	gotT, got, gotStats := e.SearchOptimize(prog, cfg)
	wantT, want, wantStats := oracle{e}.SearchOptimize(prog, cfg)
	if d := diffDerivation(gotT, wantT, got, want) + diffStats(gotStats, wantStats); d != "" {
		t.Fatalf("search of %s at %+v (auto %t, %+v): %s", prog, *e.Params, e.Auto, cfg, d)
	}
	gotT, got = e.Optimize(prog)
	wantT, want = oracle{e}.Optimize(prog)
	if d := diffDerivation(gotT, wantT, got, want); d != "" {
		t.Fatalf("greedy derivation of %s at %+v (auto %t): %s", prog, *e.Params, e.Auto, d)
	}
}

var oracleScale = flag.Int("oracle.scale", 1, "multiply the oracle grid's programs per cell (250 runs the 144 000-case grid)")

// oracleMachines are the grid's machines: the daemon's, start-up dominated
// at a power of two; a non-power of two, where the Local rules are fenced
// off; and large blocks on few ranks, where the portfolio prices a
// reduction below the butterfly.
var oracleMachines = []cost.Params{
	{Ts: 1000, Tw: 1, M: 64, P: 64},
	{Ts: 300, Tw: 2, M: 48, P: 48},
	{Ts: 150, Tw: 1.25, M: 65536, P: 8},
}

// TestSearchMatchesOracle: over a grid of programs — RandProgram at 12 and
// 40 stages and RandSparseProgram — on three machines, with and without the
// portfolio model, under the default budgets and a starved one, the search
// and the greedy engine return the oracle's derivations, prices and
// statistics bit for bit.
func TestSearchMatchesOracle(t *testing.T) {
	perCell := 16 * *oracleScale
	if testing.Short() {
		perCell = 4
	}
	budgets := []SearchConfig{{}, {MaxNodes: 3, MaxDepth: 2}}
	cases := 0
	for mi, p := range oracleMachines {
		for _, auto := range []bool{false, true} {
			e := NewCostGuidedEngine(p)
			e.Auto = auto
			rng := rand.New(rand.NewSource(int64(100*mi) + int64(len(budgets))))
			for i := 0; i < perCell; i++ {
				progs := []term.Seq{RandProgram(rng, 12), RandProgram(rng, 40), RandSparseProgram(rng, 2+rng.Intn(5))}
				for _, prog := range progs {
					for _, cfg := range budgets {
						checkAgainstOracle(t, e, prog, cfg)
						cases++
					}
				}
			}
		}
	}
	t.Logf("%d cases", cases)
}

// missPool draws the first n programs of the benchmark's plan-miss pool for
// a seed as bench/plan.go draws it: RandProgram at 12 stages, distinct under
// Canonical, at most one multiplying collective.
func missPool(seed int64, n int) []term.Seq {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	var pool []term.Seq
	for len(pool) < n {
		prog := RandProgram(rng, 12)
		src := Canonical(prog)
		if !seen[src] && strings.Count(src, "(*)") <= 1 {
			seen[src] = true
			pool = append(pool, prog)
		}
	}
	return pool
}

// daemonParams is the serving daemon's default machine, at which the
// plan-miss workload asks for search and selection.
var daemonParams = cost.Params{Ts: 1000, Tw: 1, M: 64, P: 64}

// TestSearchMatchesOracleOnTheMissPool: the first 2 000 programs of the
// plan-miss pool of seeds 1–3, searched with selection at the daemon's
// machine as a miss is, get the oracle's answer.
func TestSearchMatchesOracleOnTheMissPool(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 200
	}
	e := NewCostGuidedEngine(daemonParams)
	e.Auto = true
	for seed := int64(1); seed <= 3; seed++ {
		for _, prog := range missPool(seed, n) {
			checkAgainstOracle(t, e, prog, SearchConfig{})
		}
	}
}

// longShape repeats a unit of stages k times.
func longShape(unit term.Seq, k int) term.Seq {
	out := make(term.Seq, 0, k*len(unit))
	for i := 0; i < k; i++ {
		out = append(out, unit...)
	}
	return out
}

// longShapes are the long-pipeline units: a profitable fusion per unit, a
// comcast per unit, and a chain of scans.
var longShapes = map[string]term.Seq{
	"scan(*) ; reduce(+)": {term.Scan{Op: algebra.Mul}, term.Reduce{Op: algebra.Add}},
	"bcast ; scan(+)":     {term.Bcast{}, term.Scan{Op: algebra.Add}},
	"scan(+)":             {term.Scan{Op: algebra.Add}},
}

// TestSearchMatchesOracleOnLongPipelines: the long shapes, up to 400 units,
// where the search runs out of budget and greedy rewrites every unit.
func TestSearchMatchesOracleOnLongPipelines(t *testing.T) {
	units := []int{1, 2, 3, 5, 16, 64, 400}
	if testing.Short() || raceEnabled {
		units = []int{1, 2, 3, 16, 64}
	}
	for _, auto := range []bool{false, true} {
		e := NewCostGuidedEngine(daemonParams)
		e.Auto = auto
		for name, unit := range longShapes {
			for _, k := range units {
				t.Run(fmt.Sprintf("%s×%d/auto=%t", name, k, auto), func(t *testing.T) {
					checkAgainstOracle(t, e, longShape(unit, k), SearchConfig{})
				})
			}
		}
	}
}

// headless is the rule list with every Head declaration dropped: the engine
// then tries each rule at every position, as it does a caller's own rules.
func headless(rs []Rule) []Rule {
	out := append([]Rule(nil), rs...)
	for i := range out {
		out[i].Head = nil
	}
	return out
}

// TestSearchMatchesOracleWithoutHeads: an Engine.Rules whose rules declare
// no head — the whole catalog with the extensions, and the default rules in
// an order of their own — is searched as the oracle searches it.
func TestSearchMatchesOracleWithoutHeads(t *testing.T) {
	n := 150
	if testing.Short() {
		n = 40
	}
	reversed := headless(defaultRules)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	// Half the rules keep their heads: declared and undeclared mix.
	mixed := append([]Rule(nil), AllWithExtensions()...)
	for i := 0; i < len(mixed); i += 2 {
		mixed[i].Head = nil
	}
	for _, rs := range [][]Rule{headless(AllWithExtensions()), reversed, mixed} {
		for _, p := range oracleMachines[:2] {
			e := NewCostGuidedEngine(p)
			e.Rules = rs
			rng := rand.New(rand.NewSource(61))
			for i := 0; i < n; i++ {
				checkAgainstOracle(t, e, RandProgram(rng, 12), SearchConfig{})
				checkAgainstOracle(t, e, RandSparseProgram(rng, 2+rng.Intn(5)), SearchConfig{MaxNodes: 5})
			}
		}
	}
}

// TestRulesDeclareTheirHeads: every catalog rule declares its head, and a
// window whose first stage is of another kind never matches it — over every
// window of the generators' programs and their rewritings.
func TestRulesDeclareTheirHeads(t *testing.T) {
	rs := AllWithExtensions()
	for _, r := range rs {
		if r.Head == nil {
			t.Errorf("%s declares no head", r.Name)
		}
	}
	rng := rand.New(rand.NewSource(5))
	e := NewEngine()
	e.Rules = rs
	for trial := 0; trial < 400; trial++ {
		prog := RandProgram(rng, 12)
		if trial%2 == 1 {
			prog = RandSparseProgram(rng, 2+rng.Intn(5))
		}
		opt, _ := e.Optimize(prog)
		for _, stages := range [][]term.Term{prog, term.Stages(opt)} {
			for i := range stages {
				for _, r := range rs {
					if i+r.Window > len(stages) || kindOf(stages[i]) == kindOf(r.Head) {
						continue
					}
					if _, ok := r.Try(stages[i:i+r.Window], e.Env); ok {
						t.Fatalf("%s matched %s, which does not start with its head %T", r.Name, term.Seq(stages[i:i+r.Window]), r.Head)
					}
				}
			}
		}
	}
}

// FuzzSearch searches byte-decoded programs, as FuzzRewrite decodes them,
// with the default rules or the whole catalog, on one of the oracle's
// machines with or without the portfolio model, under the default budgets
// or a starved one, and holds the result to the oracle's.
func FuzzSearch(f *testing.F) {
	f.Add(byte(0), []byte{1, 1, 1, 0, 2, 0})          // the greedy trap
	f.Add(byte(1), []byte{0, 0, 1, 0, 3, 1})          // bcast ; scan(+) ; allreduce(*)
	f.Add(byte(6), []byte{6, 0, 6, 0, 4, 0, 0, 0})    // round trips, inc, bcast
	f.Add(byte(13), []byte{1, 1, 2, 0, 1, 1, 2, 0})   // two SR2 windows
	f.Add(byte(18), []byte{5, 0, 0, 0, 4, 0, 1, 0})   // pair;pi_1 ; bcast ; inc ; scan(+)
	f.Add(byte(23), []byte{0, 0, 3, 1, 2, 4, 0, 0})   // bcast ; allreduce(*) ; reduce(left) ; bcast
	f.Add(byte(9), []byte{1, 2, 1, 2, 1, 2, 2, 2, 3}) // scans of max into a reduce
	f.Fuzz(func(t *testing.T, knobs byte, data []byte) {
		prog := decodeProgram(data)
		if len(prog) == 0 {
			t.Skip("no stages decoded")
		}
		e := NewCostGuidedEngine(oracleMachines[int(knobs)%len(oracleMachines)])
		e.Auto = knobs&4 != 0
		if knobs&8 != 0 {
			e.Rules = AllWithExtensions()
		}
		cfg := SearchConfig{}
		if knobs&16 != 0 {
			cfg = SearchConfig{MaxNodes: 3, MaxDepth: 2}
		}
		checkAgainstOracle(t, e, prog, cfg)
	})
}

// TestSearchAllocs pins what a warm search allocates, averaged over the
// first programs of the seed-3 plan-miss pool searched with selection at the
// daemon's machine: one with an application at most 40 times (on these
// programs the parent of the incremental matches measured 61.0, the change
// 26.0), one without at most twice (2.0 and 0: one pass over the stages,
// one score, one Floor).
func TestSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates")
	}
	e := NewCostGuidedEngine(daemonParams)
	e.Auto = true
	var with, without []term.Term
	for _, prog := range missPool(3, 1000) {
		if _, apps, _ := e.SearchOptimize(prog, SearchConfig{}); len(apps) > 0 {
			with = append(with, prog)
		} else {
			without = append(without, prog)
		}
	}
	for _, c := range []struct {
		name  string
		progs []term.Term
		bound float64
	}{{"with an application", with, 40}, {"without", without, 2}} {
		i := 0
		allocs := testing.AllocsPerRun(len(c.progs), func() {
			e.SearchOptimize(c.progs[i%len(c.progs)], SearchConfig{})
			i++
		})
		if allocs > c.bound {
			t.Errorf("a warm search %s allocates %.1f times, want ≤ %.0f", c.name, allocs, c.bound)
		}
		t.Logf("%d searches %s: %.1f allocations", len(c.progs), c.name, allocs)
	}
}

// countingRules is the default rule list with every Try counted into n.
func countingRules(n *int) []Rule {
	rs := append([]Rule(nil), defaultRules...)
	for i := range rs {
		try := rs[i].Try
		rs[i].Try = func(w []term.Term, env Env) ([]term.Term, bool) {
			*n++
			return try(w, env)
		}
	}
	return rs
}

// TestGreedyTriesLinearly pins greedy's scaling by its Try calls, not its
// time: on scan(*) ; reduce(+) × 3 200 it rewrites every unit and, resuming
// where it rewrote rather than at stage 0, tries a constant number of
// windows per stage — 12 798 calls on 6 400 stages, where restarting at
// stage 0 after each rewrite made 215 132 778.
func TestGreedyTriesLinearly(t *testing.T) {
	var tries int
	e := NewCostGuidedEngine(daemonParams)
	e.Rules = countingRules(&tries)
	prog := longShape(longShapes["scan(*) ; reduce(+)"], 3200)
	_, apps := e.Optimize(prog)
	if len(apps) != 3200 {
		t.Fatalf("greedy applied %d rules, want one per unit", len(apps))
	}
	if tries > 4*len(prog) {
		t.Errorf("greedy tried %d windows on %d stages, want ≤ %d", tries, len(prog), 4*len(prog))
	}
	t.Logf("greedy: %d Try calls on %d stages", tries, len(prog))
}

// TestApplicationStringMatchesFmt: an application renders as the fmt
// rendering it replaced did, over the generators' derivations — the rule
// right-hand sides, the sparse stages' String and the empty replacement of
// GS-Id among them.
func TestApplicationStringMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	e := NewEngine()
	e.Rules = AllWithExtensions()
	n := 0
	for trial := 0; trial < 600; trial++ {
		prog := RandProgram(rng, 12)
		if trial%3 == 2 {
			prog = RandSparseProgram(rng, 2+rng.Intn(5))
		}
		for _, a := range e.Applicable(prog) {
			want := fmt.Sprintf("%s @%d: %s  =>  %s", a.Rule, a.Pos, term.Seq(a.Before), term.Seq(a.After))
			if got := a.String(); got != want {
				t.Fatalf("Application.String() = %q, want %q", got, want)
			}
			n++
		}
	}
	t.Logf("%d applications", n)
}
