package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cost"
	"repro/internal/exper"
	"repro/internal/rules"
	"repro/internal/term"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postOptimize(t *testing.T, url string, req Request) (Response, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(url+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /optimize: %v", err)
	}
	defer httpResp.Body.Close()
	var resp Response
	if httpResp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			t.Fatalf("decode response: %v", err)
		}
	}
	return resp, httpResp
}

func TestOptimizeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, httpResp := postOptimize(t, ts.URL, Request{Program: "bcast ; scan(+) ; scan(+)", M: 16})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", httpResp.StatusCode)
	}
	if resp.Canonical != "bcast ; scan(+) ; scan(+)" {
		t.Errorf("canonical = %q", resp.Canonical)
	}
	if len(resp.Applications) == 0 || !strings.Contains(resp.Applications[0], "BSS-Comcast") {
		t.Errorf("applications = %v, want BSS-Comcast", resp.Applications)
	}
	if resp.CostAfter >= resp.CostBefore {
		t.Errorf("cost did not improve: %g -> %g", resp.CostBefore, resp.CostAfter)
	}
	if !resp.Verified {
		t.Error("plan not verified")
	}
	if resp.Cached {
		t.Error("first request must be a miss")
	}

	// The same program (any spelling) is now a cache hit.
	again, _ := postOptimize(t, ts.URL, Request{Program: "bcast;scan( + );scan(+) # same", M: 16})
	if !again.Cached {
		t.Error("repeat request must hit the cache")
	}
	if again.Optimized != resp.Optimized {
		t.Errorf("cache returned a different plan: %q vs %q", again.Optimized, resp.Optimized)
	}
}

func TestOptimizeErrors(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	huge := 1e308
	cases := []struct {
		name string
		do   func() *http.Response
		code int
	}{
		{"parse error", func() *http.Response {
			_, r := postOptimize(t, ts.URL, Request{Program: "scan(???)"})
			return r
		}, http.StatusBadRequest},
		{"empty program", func() *http.Response {
			_, r := postOptimize(t, ts.URL, Request{Program: "   "})
			return r
		}, http.StatusBadRequest},
		{"bad machine", func() *http.Response {
			_, r := postOptimize(t, ts.URL, Request{Program: "scan(+)", P: -3})
			return r
		}, http.StatusBadRequest},
		{"estimate overflows", func() *http.Response {
			_, r := postOptimize(t, ts.URL, Request{Program: "scan(+)", Ts: &huge})
			return r
		}, http.StatusBadRequest},
		{"estimate overflows again", func() *http.Response {
			_, r := postOptimize(t, ts.URL, Request{Program: "scan(+)", Ts: &huge})
			return r
		}, http.StatusBadRequest},
		{"estimate overflows, searched and selected", func() *http.Response {
			_, r := postOptimize(t, ts.URL, Request{Program: "bcast ; scan(+) ; reduce(+)", Tw: &huge, M: 1 << 62, Strategy: "search", Select: true})
			return r
		}, http.StatusBadRequest},
		{"bad body", func() *http.Response {
			r, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader("{"))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}, http.StatusBadRequest},
		{"two values in one body", func() *http.Response {
			r, err := http.Post(ts.URL+"/optimize", "application/json", strings.NewReader(`{"program":"bcast"}{"program":"scan(+)"}`))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}, http.StatusBadRequest},
		{"bad method", func() *http.Response {
			r, err := http.Get(ts.URL + "/optimize")
			if err != nil {
				t.Fatal(err)
			}
			return r
		}, http.StatusMethodNotAllowed},
	}
	for _, c := range cases {
		r := c.do()
		r.Body.Close()
		if r.StatusCode != c.code {
			t.Errorf("%s: HTTP %d, want %d", c.name, r.StatusCode, c.code)
		}
	}
	if errs := s.Metrics().Errors; errs != uint64(len(cases)) {
		t.Errorf("error counter = %d, want %d", errs, len(cases))
	}
	if size := s.Metrics().Cache.Size; size != 0 {
		t.Errorf("%d plans cached, want none", size)
	}
}

// TestNegativeZeroIsTheZeroMachine: −0 passes the non-negative check but is
// the machine +0 is. Every spelling of it shares the +0 request's one cache
// entry and engine run, and answers what +0's hit answers.
func TestNegativeZeroIsTheZeroMachine(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const program = "bcast ; scan(+) ; scan(+)"
	plus := requestBody(program, `,"ts":0,"tw":0,"m":16`)
	if miss := postBody(t, ts.URL, plus); miss.code != http.StatusOK || !strings.Contains(miss.body, `"Tw": 0,`) {
		t.Fatalf("+0: HTTP %d: %s", miss.code, miss.body)
	}
	hit := postBody(t, ts.URL, plus)
	for _, opts := range []string{`,"ts":-0,"tw":-0,"m":16`, `,"ts":0,"tw":-0,"m":16`, `,"ts":-0.0,"tw":-0e5,"m":16`} {
		body := requestBody(program, opts)
		for i := 0; i < 2; i++ {
			if ans := postBody(t, ts.URL, body); ans != hit {
				t.Errorf("%s: answer %d\n%+v\nwant the +0 hit\n%+v", body, i, ans, hit)
			}
		}
	}
	if m := s.Metrics(); m.EngineRuns != 1 || m.Cache.Size != 1 {
		t.Errorf("engine runs = %d, cache entries = %d, want 1 and 1", m.EngineRuns, m.Cache.Size)
	}
}

// TestEveryAnswerRenders: at machine parameters up to the edge of float64
// and int64, every answer is a 200 whose body decodes into a Response or a
// 4xx with an error object — never a 200 with nothing in it — and asking
// again gets the same status.
func TestEveryAnswerRenders(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var overflows int
	for _, tsv := range []string{"0", "1", "1e300", "1e308"} {
		for _, tw := range []string{"0", "1", "1e300", "1e308"} {
			for _, p := range []int{1, 1 << 31, 1 << 62} {
				for _, m := range []int{1, 1 << 31, 1 << 62} {
					for _, opts := range []string{"", `,"select":true`, `,"strategy":"search"`, `,"strategy":"search","select":true`} {
						body := fmt.Sprintf(`{"program":"bcast ; scan(+) ; reduce(+)","ts":%s,"tw":%s,"p":%d,"m":%d%s}`, tsv, tw, p, m, opts)
						var codes []int
						for range 2 {
							ans := postBody(t, ts.URL, body)
							codes = append(codes, ans.code)
							var doc struct {
								Response
								Error string `json:"error"`
							}
							err := json.Unmarshal([]byte(ans.body), &doc)
							switch {
							case ans.code == http.StatusOK:
								if err != nil || doc.Canonical == "" || doc.Error != "" {
									t.Fatalf("%s: HTTP 200 with body %q (%v)", body, ans.body, err)
								}
							case ans.code/100 == 4:
								if err != nil || !strings.HasPrefix(doc.Error, "the cost estimate overflows at ts=") {
									t.Fatalf("%s: HTTP %d with body %q (%v)", body, ans.code, ans.body, err)
								}
							default:
								t.Fatalf("%s: HTTP %d: %s", body, ans.code, ans.body)
							}
						}
						if codes[0] != codes[1] {
							t.Fatalf("%s: HTTP %d, then %d", body, codes[0], codes[1])
						}
						if codes[0] != http.StatusOK {
							overflows++
						}
					}
				}
			}
		}
	}
	if overflows == 0 {
		t.Error("no parameters overflowed: the grid does not reach the edge")
	}
}

// TestHugeMachineIsPricedAboveZero: at p = MaxInt64 the pipeline's p−2+k
// slots wrapped in int, so a selected reduction was answered with a
// negative cost and a pipeline selection predicted below zero. Every
// estimate of the answer is a non-negative number, and the butterfly wins.
func TestHugeMachineIsPricedAboveZero(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	ans := postBody(t, ts.URL, `{"program":"reduce(+)","p":9223372036854775807,"select":true}`)
	var resp Response
	if err := json.Unmarshal([]byte(ans.body), &resp); ans.code != http.StatusOK || err != nil {
		t.Fatalf("HTTP %d (%v): %s", ans.code, err, ans.body)
	}
	if resp.CostBefore < 0 || resp.CostAfter < 0 || len(resp.Selection) != 1 {
		t.Fatalf("estimates %g → %g, selections %+v", resp.CostBefore, resp.CostAfter, resp.Selection)
	}
	if s := resp.Selection[0]; s.Algo != cost.AlgoButterfly || s.Predicted != s.Butterfly || s.Predicted < 0 {
		t.Errorf("selection %+v, want the butterfly at a non-negative price", s)
	}
}

// TestOptimizeBodyIsBounded: the daemon reads at most maxRequestBytes of a
// request. One byte more is 413 with the usual error object, counted as an
// error; a body of exactly the limit is read whole and answered; and the
// requests around them are served as ever.
func TestOptimizeBodyIsBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const program = "bcast ; scan(+) ; scan(+)"
	padded := func(size int) string {
		head, tail := `{"program":"`+program+`","m":16`, "}"
		return head + strings.Repeat(" ", size-len(head)-len(tail)) + tail
	}
	post := func(body string, declared bool) (int, Response, string) {
		t.Helper()
		rd := io.Reader(strings.NewReader(body))
		if !declared {
			rd = io.MultiReader(rd) // hides the length: the client sends chunks
		}
		r, err := http.Post(ts.URL+"/optimize", "application/json", rd)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		var doc struct {
			Response
			Error string `json:"error"`
		}
		if err := json.NewDecoder(r.Body).Decode(&doc); err != nil {
			t.Fatalf("HTTP %d: body is not a JSON object: %v", r.StatusCode, err)
		}
		return r.StatusCode, doc.Response, doc.Error
	}

	first, _ := postOptimize(t, ts.URL, Request{Program: program, M: 16})
	for _, declared := range []bool{true, false} {
		if code, _, msg := post(padded(maxRequestBytes+1), declared); code != http.StatusRequestEntityTooLarge || !strings.Contains(msg, "exceeds 1048576 bytes") {
			t.Errorf("one byte over the limit (length declared: %t): HTTP %d %q, want 413", declared, code, msg)
		}
		code, atLimit, msg := post(padded(maxRequestBytes), declared)
		if code != http.StatusOK || !atLimit.Cached || atLimit.Optimized != first.Optimized {
			t.Errorf("exactly the limit (length declared: %t): HTTP %d %q cached=%t, want the first request's plan from the cache", declared, code, msg, atLimit.Cached)
		}
		if again, r := postOptimize(t, ts.URL, Request{Program: program, M: 16}); r.StatusCode != http.StatusOK || !again.Cached {
			t.Errorf("a small request after the oversize one: HTTP %d cached=%t", r.StatusCode, again.Cached)
		}
	}
	if m := s.Metrics(); m.Errors != 2 || m.Optimized != 5 || m.EngineRuns != 1 {
		t.Errorf("errors = %d, optimized = %d, engine runs = %d, want 2, 5 and 1", m.Errors, m.Optimized, m.EngineRuns)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postOptimize(t, ts.URL, Request{Program: "scan(*) ; scan(+)", M: 8})
	postOptimize(t, ts.URL, Request{Program: "scan(*) ; scan(+)", M: 8})

	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var health map[string]any
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}

	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(mr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Requests < 3 || snap.Optimized != 2 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.Cache.Hits != 1 || snap.Cache.Misses != 1 {
		t.Errorf("cache stats = %+v, want 1 hit / 1 miss", snap.Cache)
	}
	if snap.EngineRuns != 1 {
		t.Errorf("engine runs = %d, want 1", snap.EngineRuns)
	}
}

// TestServerSingleFlightUnderLoad drives 128 concurrent HTTP clients
// over a small program set at two block sizes and asserts the engine ran
// exactly once per distinct (program, machine) key — the single-flight
// guarantee holding end to end through the HTTP layer. Each program's
// second block size is a miss of its own over the rule instances of its
// first, and /metrics reports the verifier answering those from its memo.
func TestServerSingleFlightUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const clients = 128
	programs := []string{
		"scan(+) ; reduce(+)", "scan(*) ; scan(+)", "bcast ; scan(+) ; scan(+)",
		"reduce(max)", "allreduce(+) ; reduce(+)", "map inc ; scan(+)",
		"bcast ; reduce(min)", "gather ; scatter ; scan(+)",
	}
	keys := 2 * len(programs)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, httpResp := postOptimize(t, ts.URL, Request{Program: programs[i%len(programs)], M: 16 + i/len(programs)%2})
			if httpResp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("client %d: HTTP %d", i, httpResp.StatusCode)
				return
			}
			if resp.Optimized == "" {
				errs <- fmt.Errorf("client %d: empty plan", i)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if runs := s.Planner().EngineRuns(); runs != int64(keys) {
		t.Errorf("engine ran %d times for %d distinct keys under %d clients", runs, keys, clients)
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(mr.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if st := snap.Cache; st.Hits+st.Coalesced != uint64(clients-keys) {
		t.Errorf("hits+coalesced = %d, want %d", st.Hits+st.Coalesced, clients-keys)
	}
	if v := snap.Verify; v.Derivations != uint64(keys) || v.InstanceHits == 0 {
		t.Errorf("verifier counters %+v, want %d derivations and instance hits", v, keys)
	}
}

// TestProgramStagesBounded: a program of more than MaxStages stages is
// refused with 400, naming its stage count, before it is lexed or planned —
// a 1 MiB body of scan(+) quickly — while one of exactly MaxStages stages is
// searched, selected and answered.
func TestProgramStagesBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	const unit = "scan(+) ; "
	prog := strings.Repeat(unit, (maxRequestBytes-32)/len(unit)) + "scan(+)"
	body := requestBody(prog, "")
	if len(body) > maxRequestBytes {
		t.Fatalf("the body is %d bytes, over the %d-byte bound", len(body), maxRequestBytes)
	}
	start := time.Now()
	ans := postBody(t, ts.URL, body)
	took := time.Since(start)
	want := fmt.Sprintf("program has %d stages, at most %d", strings.Count(prog, ";")+1, MaxStages)
	if ans.code != http.StatusBadRequest || !strings.Contains(ans.body, want) {
		t.Fatalf("a %d-byte program answered %d %s, want 400 %q", len(prog), ans.code, ans.body, want)
	}
	if took > 2*time.Second {
		t.Errorf("refusing a 1 MiB program took %v", took)
	}
	if runs := s.Planner().EngineRuns(); runs != 0 {
		t.Errorf("a refused program ran the engine %d times", runs)
	}

	at := strings.TrimSuffix(strings.Repeat("bcast ; scan(+) ; ", MaxStages/2), " ; ")
	searched := `,"strategy":"search","select":true`
	if ans := postBody(t, ts.URL, requestBody(at, searched)); ans.code != http.StatusOK {
		t.Fatalf("a program of %d stages answered %d %s", MaxStages, ans.code, ans.body)
	}
	ans = postBody(t, ts.URL, requestBody(at+" ; bcast", searched))
	want = fmt.Sprintf("program has %d stages, at most %d", MaxStages+1, MaxStages)
	if ans.code != http.StatusBadRequest || !strings.Contains(ans.body, want) {
		t.Fatalf("a program of %d stages answered %d %s, want 400 %q", MaxStages+1, ans.code, ans.body, want)
	}
}

// TestProgramWidthBounded: a program whose halos nest more than MaxWidth
// blocks is refused with 400, naming its width, before it is planned, while
// one of exactly MaxWidth blocks is searched, selected and answered. No
// program of exper's rule patterns or of a RandSparseProgram corpus is
// refused.
func TestProgramWidthBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	wide := strings.TrimSuffix(strings.Repeat("halo(1,2,3,5) ; ", 9), " ; ")
	start := time.Now()
	ans := postBody(t, ts.URL, requestBody(wide, ""))
	took := time.Since(start)
	want := fmt.Sprintf("program is %d blocks wide, at most %d", 1<<18, MaxWidth)
	if ans.code != http.StatusBadRequest || !strings.Contains(ans.body, want) {
		t.Fatalf("nine halo(1,2,3,5) answered %d %s, want 400 %q", ans.code, ans.body, want)
	}
	if took > time.Second {
		t.Errorf("refusing nine halo(1,2,3,5) took %v", took)
	}
	if runs := s.Planner().EngineRuns(); runs != 0 {
		t.Errorf("a refused program ran the engine %d times", runs)
	}

	offsets := make([]string, 32)
	for i := range offsets {
		offsets[i] = fmt.Sprint(i + 1)
	}
	halo32 := "halo(" + strings.Join(offsets, ",") + ")"
	searched := `,"strategy":"search","select":true`
	if ans := postBody(t, ts.URL, requestBody(halo32+" ; "+halo32, searched)); ans.code != http.StatusOK {
		t.Fatalf("a program %d blocks wide answered %d %s", MaxWidth, ans.code, ans.body)
	}
	ans = postBody(t, ts.URL, requestBody(halo32+" ; "+halo32+" ; halo(0,1)", searched))
	want = fmt.Sprintf("program is %d blocks wide, at most %d", 2*MaxWidth, MaxWidth)
	if ans.code != http.StatusBadRequest || !strings.Contains(ans.body, want) {
		t.Fatalf("a program %d blocks wide answered %d %s, want 400 %q", 2*MaxWidth, ans.code, ans.body, want)
	}

	var progs []term.Seq
	for _, pat := range append(exper.Patterns(), exper.Extensions()...) {
		progs = append(progs, pat.LHS.Stages())
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		progs = append(progs, rules.RandSparseProgram(rng, 2+i%7))
	}
	for _, prog := range progs {
		if w := width(prog); w > MaxWidth {
			t.Errorf("%v is %d blocks wide, over MaxWidth", prog, w)
		}
	}
	lists := term.Seq{term.Halo{H: &term.Hood{Lists: [][]int{{1}, {0, 1, 1}}}}, term.Halo{H: &term.Hood{Offsets: []int{-1, 1}}}}
	if w := width(lists); w != 6 {
		t.Errorf("a neighbour list of longest list 3 then two offsets is %d blocks wide, want 6", w)
	}
}
