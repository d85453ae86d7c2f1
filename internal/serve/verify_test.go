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
// into the scratch's blocks (term.Fn.Into) took it to 20. Under -race,
// whose sync.Pool drops the scratch at random, the count is not asserted.
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
	const bound = 40
	if allocs > bound && !raceEnabled {
		t.Errorf("a zero-application 12-stage miss allocates %.0f times, want ≤ %d", allocs, bound)
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
// its stage list and the stages too wide for an interface word, nothing per
// token: the parent of the pooled tokens measured 9 allocations a program,
// the change 2.
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
	if allocs > 3 && !raceEnabled {
		t.Errorf("parsing a pool program allocates %.0f times, want ≤ 3", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}

// TestPlannerMissAllocs bounds a warm planner miss — search and selection
// at the daemon's machine, the derivation check, the cache insert and its
// eviction — over the seed-3 plan-miss pool after 4 000 warm-up misses.
// Over the next 56 000 the parent of the incremental plan search measured 63
// allocations a miss, the change 38.
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
	if allocs > 50 {
		t.Errorf("a warm planner miss allocates %.0f times, want ≤ 50", allocs)
	}
	t.Logf("%.0f allocations", allocs)
}
