package serve

import (
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro/internal/rules"
	"repro/internal/term"
)

// TestIllTypedProgramIsTheClientsError: a program the functional semantics
// is undefined on parses, so only evaluating it finds out. That is the
// client's mistake — 400, naming the stage — not a server fault.
func TestIllTypedProgramIsTheClientsError(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	post := func(body string) (int, string) {
		t.Helper()
		r, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var msg struct {
			Error string `json:"error"`
		}
		raw, _ := io.ReadAll(r.Body)
		json.Unmarshal(raw, &msg) // a 200 body has no "error" member
		return r.StatusCode, msg.Error
	}
	for _, c := range []struct{ prog, stage string }{
		{"scatter", "stage 0 (scatter)"},
		{"bcast ; scatter", "stage 1 (scatter)"},
	} {
		// An unknown field ("fuse") is ignored.
		for _, options := range []string{"", `,"strategy":"search","select":true`, `,"fuse":true`} {
			body := requestBody(c.prog, options)
			code, msg := post(body)
			if code != http.StatusBadRequest || !strings.HasPrefix(msg, "ill-typed program: "+c.stage) {
				t.Errorf("%s: HTTP %d %q, want 400 ill-typed program: %s …", body, code, msg, c.stage)
			}
		}
	}
	if code, msg := post(requestBody("gather ; scatter", "")); code != http.StatusOK {
		t.Errorf("gather ; scatter: HTTP %d %q, want 200", code, msg)
	}
	if m := s.Metrics(); m.Errors != 6 || m.Optimized != 1 {
		t.Errorf("errors = %d, optimized = %d, want 6 and 1", m.Errors, m.Optimized)
	}
}

// TestPlannerTwoClients is the benchmark's client count against one
// planner (run under -race): both plan the same never-repeated programs,
// every plan is verified, and the verifier's counters add up.
func TestPlannerTwoClients(t *testing.T) {
	pl := NewPlanner(64, 4)
	m := DefaultConfig().Machine
	const each = 120
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(9))
			for i := 0; i < each; i++ {
				prog := rules.RandProgram(rng, 10)
				if strings.Count(rules.Canonical(prog), "(*)") > 1 {
					continue // outside the numeric contract
				}
				// The clients ask at different block sizes, so each request
				// is a miss of its own over shared rule instances.
				mach := m
				mach.M += g
				plan, _, err := pl.PlanTermOpts(prog, mach, StrategySearch, true)
				if err != nil {
					t.Errorf("%s: %v", prog, err)
				} else if !plan.Verified {
					t.Errorf("%s: plan not verified", prog)
				}
			}
		}(g)
	}
	wg.Wait()
	st := pl.VerifyStats()
	if st.Derivations != uint64(pl.EngineRuns()) || st.ZeroApplication == 0 || st.ZeroApplication == st.Derivations {
		t.Errorf("derivations: %+v for %d engine runs", st, pl.EngineRuns())
	}
	if st.InstanceHits <= st.InstanceChecks {
		t.Errorf("two clients over the same programs, yet more instances evaluated than remembered: %+v", st)
	}
}

// TestPlannerConcurrentMatchesSequential: two goroutines parse and plan the
// same 500 programs of the seed-3 plan-miss pool through one planner, in
// opposite orders, so that searches run at once and share what is shared —
// the stages lang.Symbols boxed once, the search's pooled slabs, the engine
// pool, the Verifier — and every plan they get names the canonical form,
// optimized program and applications a sequential planner computes. CI runs
// it under -race.
func TestPlannerConcurrentMatchesSequential(t *testing.T) {
	pool := missPool(3, 500)
	m := DefaultConfig().Machine
	plan := func(pl *Planner, src string) Plan {
		t.Helper()
		prog, err := pl.ParseProgram(src)
		if err != nil {
			t.Error(err)
			return Plan{}
		}
		p, _, err := pl.PlanTermOpts(prog, m, StrategySearch, true)
		if err != nil {
			t.Errorf("%s: %v", src, err)
		}
		return p
	}
	seq := NewPlanner(4096, 64)
	want := make([]Plan, len(pool))
	for i, src := range pool {
		want[i] = plan(seq, src)
	}
	pl := NewPlanner(4096, 64)
	got := [2][]Plan{make([]Plan, len(pool)), make([]Plan, len(pool))}
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range pool {
				i := k
				if g == 1 {
					i = len(pool) - 1 - k
				}
				got[g][i] = plan(pl, pool[i])
			}
		}()
	}
	wg.Wait()
	for g := range got {
		for i, p := range got[g] {
			w := want[i]
			if p.Canonical != w.Canonical || p.Optimized != w.Optimized || strings.Join(p.Applications, "\n") != strings.Join(w.Applications, "\n") {
				t.Fatalf("goroutine %d, %s: plan %q %q, sequential %q %q", g, pool[i], p.Optimized, p.Applications, w.Optimized, w.Applications)
			}
		}
	}
	if runs := pl.EngineRuns(); runs != int64(len(pool)) {
		t.Errorf("%d engine runs for %d programs", runs, len(pool))
	}
}

// TestZeroApplicationMissAllocs bounds what a miss costs when no rule
// applies — 59 % of the programs the benchmark draws. The program is then
// evaluated once per machine size, the verification inputs of a size being
// lanes of one list, where it was evaluated once per input: the parent of
// the change that packed them measured 2 345 allocations for this request
// (and the parent of the Verifier 4 789), the change 466. Evaluating in a
// pooled term.Scratch took it from 462 to 270 (under -race, whose
// sync.Pool drops items at random, 287–302). Building each text of the miss
// once — canonical form, key and token slice one allocation each, the
// optimized program not composed again and, with no application, not
// rendered again — took it to 200 (under -race 220–237). Writing map inc
// into the scratch's blocks (term.Fn.Into) took it to 20, and building,
// pricing and keying each thing of a miss once took it from 17 to 8: the
// canonical form and the key; the cache entry, which holds the plan's hit
// rendering; the program's box and the two programs' compilation cells; the
// engine's parameters; the search statistics. Allocating only what the plan
// keeps took it from 8 to 3: the key, its head the canonical form; the
// entry, which holds the search statistics too; the program's box (the
// daemon runs neither program, so neither has a compilation cell, and the
// engine and its parameters come from a pool). Passing the stage list
// unboxed from the planner to the search, the check and the selection took
// it from 3 to 2: the key and the entry. Taking out the engine's pool and
// the key rendered on the stack, since no timed row showed either paying,
// took it from 2 to 4: the parameters the engine points to and the
// canonical form apart from the key. The race runtime allocates, so under
// -race the count is not asserted.
func TestZeroApplicationMissAllocs(t *testing.T) {
	pl := NewPlanner(4096, 64)
	prog, err := pl.ParseProgram(strings.TrimSuffix(strings.Repeat("scan(+) ; map inc ; ", 6), " ; "))
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultConfig().Machine
	allocs := testing.AllocsPerRun(50, func() {
		m.M++ // a block size never asked before: a miss
		plan, cached, err := pl.PlanTermOpts(prog, m, StrategySearch, true)
		if err != nil || cached || len(plan.Applications) != 0 {
			t.Fatalf("cached=%t applications=%v err=%v", cached, plan.Applications, err)
		}
	})
	const want = 4
	if allocs != want && !raceEnabled {
		t.Errorf("a zero-application 12-stage miss allocates %.0f times, want %d", allocs, want)
	}
	t.Logf("%.0f allocations", allocs)
}

// missPool draws the first n programs of the benchmark's plan-miss pool for
// a seed as bench/plan.go draws it: RandProgram at 12 stages in canonical
// form, distinct, with at most one multiplying collective.
func missPool(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	var pool []string
	for len(pool) < n {
		src := rules.Canonical(rules.RandProgram(rng, 12))
		if !seen[src] && strings.Count(src, "(*)") <= 1 {
			seen[src] = true
			pool = append(pool, src)
		}
	}
	return pool
}

// TestParseProgramAllocs: parsing a program of the plan-miss pool allocates
// its stage list, nothing per token or stage: the parent of the pooled
// tokens measured 9 allocations a program, the change 2; the parent of the
// exact pin 2, the change 2; the parent of boxing each operator's reduce and
// allreduce once, when it is defined (lang.Symbols), 2, the change 1.
func TestParseProgramAllocs(t *testing.T) {
	pool := missPool(3, 2000)
	pl := NewPlanner(16, 1)
	i := 0
	allocs := testing.AllocsPerRun(len(pool), func() {
		if _, err := pl.ParseProgram(pool[i%len(pool)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 1 && !raceEnabled {
		t.Errorf("parsing a pool program allocates %.0f times, want 1", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// TestPlannerMissAllocs bounds a warm planner miss — search and selection
// at the daemon's machine, the derivation check, the cache insert and its
// eviction — over the seed-3 plan-miss pool after 4 000 warm-up misses.
// Over the next 56 000 the parent of the incremental plan search measured 63
// allocations a miss, the change 38. Over the next 2 000, building, pricing
// and keying each thing once took it from 34 to 21: FromTerm keeps a flat
// Seq, the engine stays on the stack and the estimates are the search's own
// scores, rules hands out the derived operators it built before, the cache
// entry is one allocation with its recency links, its wait and the plan's
// hit rendering, and the derivation check keys instances in a stack buffer
// and cuts the derivation on the stack. Allocating only what the plan and
// its entry keep took it from 21 to 10: the plan search cuts its keys,
// programs and match lists from pooled slabs and copies out only the
// derivation it returns, windows are priced as stage lists, the key's head
// is the canonical form, the entry holds the search statistics, neither
// program gets a compilation cell, the engine comes from a pool with its
// parameters, and the selection list is allocated once. Allocating only
// what the plan keeps took it from 10 to 7: the program goes unboxed from
// the planner to the search, the check and the selection; greedy rewrites
// and the rules append their replacements in the search's pooled storage,
// and the plan's stages, windows and applications are copied out in two
// lists. Taking out what no timed row showed paying for took it from 7 to
// 10: greedy allocates its own lists, the rules their replacement lists, the
// engine's parameters are no longer pooled, and the canonical form is
// rendered apart from the key (docs/PERF.md "What each planner mechanism
// buys"). What is left: the canonical form, the key, the entry, the plan's
// texts and lists, greedy's derivation, the replacements and the check's
// boxed forms.
func TestPlannerMissAllocs(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("the race runtime allocates; -short skips the warm-up")
	}
	const warm, measured = 4000, 2000
	pl := NewPlanner(4096, 64)
	var progs []term.Seq
	for _, src := range missPool(3, warm+measured+1) {
		prog, err := pl.ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog)
	}
	m := DefaultConfig().Machine
	plan := func(prog term.Seq) {
		if _, cached, err := pl.PlanTermOpts(prog, m, StrategySearch, true); err != nil || cached {
			t.Fatalf("%s: cached=%t err=%v", prog, cached, err)
		}
	}
	for _, prog := range progs[:warm] {
		plan(prog)
	}
	i := warm
	allocs := testing.AllocsPerRun(measured, func() {
		plan(progs[i])
		i++
	})
	if allocs != 10 {
		t.Errorf("a warm planner miss allocates %.0f times, want 10", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}
