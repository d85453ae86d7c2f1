package serve

import (
	"bytes"
	"encoding/json"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/rules"
)

// answer is what a client sees of one POST /optimize.
type answer struct {
	code   int
	ctype  string
	length int64 // -1 when the response was chunked
	body   string
}

func postBody(t *testing.T, url, body string) answer {
	t.Helper()
	r, err := http.Post(url+"/optimize", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	b, err := io.ReadAll(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	return answer{r.StatusCode, r.Header.Get("Content-Type"), r.ContentLength, string(b)}
}

// requestBody renders a request the way bench/plan.go does: compact, one
// spelling per (program, options).
func requestBody(program, options string) string {
	return `{"program":` + strconv.Quote(program) + options + `}`
}

// The four programs of bench/README.md "Numeric contract": they overflow
// float64 during verification and answer 500 "semantic mismatch".
var overflowPrograms = []string{
	"map inc ; map inc ; scan(+) ; allreduce(*) ; map inc ; allreduce(+) ; bcast ; scan(*) ; reduce(+)",
	"scan(*) ; scan(*) ; reduce(*) ; gather ; scatter ; scan(+) ; bcast ; reduce(*) ; map inc",
	"scan(*) ; scan(*) ; reduce(*) ; map pair ; map pi_1 ; bcast ; allreduce(left) ; gather ; scatter ; gather ; scatter ; gather ; scatter ; allreduce(left) ; map inc",
	"scan(*) ; scan(*) ; map pair ; map pi_1 ; scan(*) ; allreduce(+) ; bcast ; reduce(+) ; bcast ; map pair ; map pi_1 ; gather ; scatter",
}

const searchSelect = `,"p":64,"m":64,"strategy":"search","select":true`

// TestHitIsTheSameBytes: a body's second and third answers are one
// rendering — Response{Plan, true, Machine} as json.Encoder indents it,
// with its length declared — and the first differs from it in the cached
// line alone, whatever the program, strategy and machine.
func TestHitIsTheSameBytes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	type variant struct {
		options string
		mach    core.Machine
		strat   Strategy
		sel     bool
	}
	def := DefaultConfig().Machine
	dense := []variant{
		{"", def, StrategyGreedy, false},
		{searchSelect, def, StrategySearch, true},
		{`,"ts":250.5,"tw":0.125,"p":16,"m":4096`, core.Machine{Ts: 250.5, Tw: 0.125, P: 16, M: 4096}, StrategyGreedy, false},
	}
	sparseMach := core.Machine{Ts: 4, Tw: 1, P: 4, M: 2}
	sparse := []variant{
		{`,"ts":4,"tw":1,"p":4,"m":2`, sparseMach, StrategyGreedy, false},
		{`,"ts":4,"tw":1,"p":4,"m":2,"strategy":"search","select":true`, sparseMach, StrategySearch, true},
	}
	type request struct {
		program string
		variant
	}
	var reqs []request
	// One program whose answer net/http cannot hold back to measure: past
	// 2048 bytes the miss goes out chunked, and a hit's length is ours.
	long := strings.TrimSuffix(strings.Repeat("bcast ; scan(+) ; scan(+) ; reduce(+) ; ", 6), " ; ")
	for _, v := range dense {
		reqs = append(reqs, request{long, v})
	}
	seen := map[string]bool{}
	rng := rand.New(rand.NewSource(23))
	for len(seen) < 300 {
		src := rules.Canonical(rules.RandProgram(rng, 12))
		if seen[src] {
			continue
		}
		seen[src] = true
		for _, v := range dense {
			reqs = append(reqs, request{src, v})
		}
	}
	sparsePrograms := []string{
		"reduce_scatterv(+,2,0,3,1) ; allgatherv(2,0,3,1)",
		"halo(-1,1) ; map inc_t ; halo(-1,1)",
	}
	for seed := int64(0); seed < 40; seed++ {
		sparsePrograms = append(sparsePrograms, rules.Canonical(rules.RandSparseProgram(rand.New(rand.NewSource(seed)), sparseMach.P)))
	}
	for _, src := range sparsePrograms {
		if seen[src] {
			continue
		}
		seen[src] = true
		for _, v := range sparse {
			reqs = append(reqs, request{src, v})
		}
	}

	large := 0
	for _, rq := range reqs {
		body := requestBody(rq.program, rq.options)
		first, second, third := postBody(t, ts.URL, body), postBody(t, ts.URL, body), postBody(t, ts.URL, body)
		if first.code != http.StatusOK {
			t.Fatalf("%s: HTTP %d: %s", body, first.code, first.body)
		}
		if second != third {
			t.Fatalf("%s: the second and third answers differ:\n%+v\n%+v", body, second, third)
		}
		term, err := s.Planner().ParseProgram(rq.program)
		if err != nil {
			t.Fatal(err)
		}
		plan, cached, err := s.Planner().PlanTermOpts(term, rq.mach, rq.strat, rq.sel)
		if err != nil || !cached {
			t.Fatalf("%s: the plan is not resident (cached=%t, err=%v)", body, cached, err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(Response{Plan: plan, Cached: true, Machine: rq.mach}); err != nil {
			t.Fatal(err)
		}
		if second.body != want.String() {
			t.Fatalf("%s: a hit answers\n%s\nwant\n%s", body, second.body, want.String())
		}
		if second.code != http.StatusOK || second.ctype != "application/json" || second.length != int64(want.Len()) {
			t.Fatalf("%s: a hit answers HTTP %d, Content-Type %q, Content-Length %d; want 200, application/json, %d",
				body, second.code, second.ctype, second.length, want.Len())
		}
		if want.Len() > 2048 {
			large++
		}
		if first.ctype != "application/json" || (first.length >= 0 && first.length != int64(len(first.body))) {
			t.Fatalf("%s: a miss answers Content-Type %q, Content-Length %d for %d bytes", body, first.ctype, first.length, len(first.body))
		}
		a, b := strings.Split(first.body, "\n"), strings.Split(second.body, "\n")
		if len(a) != len(b) {
			t.Fatalf("%s: miss and hit differ in more than one line:\n%s\n%s", body, first.body, second.body)
		}
		for i := range a {
			if a[i] != b[i] && (a[i] != `  "cached": false,` || b[i] != `  "cached": true,`) {
				t.Fatalf("%s: miss and hit differ in line %d: %q against %q", body, i, a[i], b[i])
			}
		}
	}
	if len(reqs) < 900 || large == 0 {
		t.Fatalf("%d bodies, %d hits longer than 2048 bytes: the corpus does not cover what it should", len(reqs), large)
	}
	if st := s.Metrics().Cache; st.ByBody != uint64(len(reqs)) {
		t.Errorf("by_body = %d, want one per body (%d): its third answer", st.ByBody, len(reqs))
	}
}

// TestBodyIndexDecidesNothing: the index leads to cache entries and to
// nothing else. Spellings share their program's one entry; an evicted
// entry is recomputed through the planner; a field the daemon does not know
// changes neither the answer nor the way in; and a body whose answer is not
// a hit is never answered through it.
func TestBodyIndexDecidesNothing(t *testing.T) {
	t.Run("two spellings, one entry", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		a := `{"program":"bcast ; scan(+) ; scan(+)","m":16}`
		b := `{ "m": 16,  "program": "bcast;scan( + ) ;  scan(+)" }`
		var answers []answer
		for _, body := range []string{a, a, a, b, b, b} {
			answers = append(answers, postBody(t, ts.URL, body))
		}
		for i, ans := range answers[1:] {
			if ans != answers[1] {
				t.Errorf("answer %d differs from the first hit:\n%+v\n%+v", i+1, ans, answers[1])
			}
		}
		m := s.Metrics()
		if m.EngineRuns != 1 || m.Cache.Size != 1 || m.Cache.Misses != 1 || m.Cache.Hits != 5 {
			t.Errorf("engine runs = %d, cache = %+v; want one run, one entry, one miss, five hits", m.EngineRuns, m.Cache)
		}
		// Each spelling: answered cached the long way once, then by its bytes.
		if m.Cache.Bodies != 2 || m.Cache.ByBody != 3 {
			t.Errorf("bodies = %d, by_body = %d, want 2 and 3", m.Cache.Bodies, m.Cache.ByBody)
		}
	})

	t.Run("an evicted entry is recomputed", func(t *testing.T) {
		s, ts := newTestServer(t, Config{CacheSize: 2, CacheShards: 1})
		body := requestBody("scan(*) ; scan(+)", `,"m":8`)
		miss, hit := postBody(t, ts.URL, body), postBody(t, ts.URL, body)
		if byBody := postBody(t, ts.URL, body); byBody != hit || s.Metrics().Cache.ByBody != 1 {
			t.Fatalf("the third answer did not come through the index: by_body = %d", s.Metrics().Cache.ByBody)
		}
		postBody(t, ts.URL, requestBody("reduce(max)", ""))
		postBody(t, ts.URL, requestBody("bcast ; reduce(min)", ""))
		before := s.Metrics()
		if before.Cache.Evictions != 1 {
			t.Fatalf("evictions = %d, want 1", before.Cache.Evictions)
		}
		again := postBody(t, ts.URL, body)
		after := s.Metrics()
		if again != miss {
			t.Errorf("the remembered body of an evicted plan answers\n%+v\nwant the first answer\n%+v", again, miss)
		}
		if after.EngineRuns != before.EngineRuns+1 || after.Cache.Misses != before.Cache.Misses+1 ||
			after.Cache.Hits != before.Cache.Hits || after.Cache.ByBody != before.Cache.ByBody {
			t.Errorf("counters moved from %+v (%d runs) to %+v (%d runs), want one run and one miss more",
				before.Cache, before.EngineRuns, after.Cache, after.EngineRuns)
		}
		if revived := postBody(t, ts.URL, body); revived != hit || s.Metrics().Cache.ByBody != before.Cache.ByBody+1 {
			t.Errorf("the recomputed plan is not found by its body again")
		}
	})

	t.Run("an unknown field is ignored", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		plain := `{"program":"allreduce(+)","m":4}`
		fuse := `{"program":"allreduce(+)","m":4,"fuse":true}`
		miss, hit := postBody(t, ts.URL, plain), postBody(t, ts.URL, plain)
		for i := 0; i < 3; i++ {
			if ans := postBody(t, ts.URL, fuse); ans != hit {
				t.Errorf("request %d with \"fuse\" answers\n%+v\nwant the plain hit\n%+v", i, ans, hit)
			}
		}
		if m := s.Metrics(); m.EngineRuns != 1 || m.Cache.Bodies != 2 || m.Cache.ByBody != 2 {
			t.Errorf("engine runs = %d, bodies = %d, by_body = %d, want 1, 2 and 2", m.EngineRuns, m.Cache.Bodies, m.Cache.ByBody)
		}
		_, fresh := newTestServer(t, Config{})
		if ans := postBody(t, fresh.URL, fuse); ans != miss {
			t.Errorf("a first request with \"fuse\" answers\n%+v\nwant the plain miss\n%+v", ans, miss)
		}
	})

	t.Run("never through the index", func(t *testing.T) {
		s, ts := newTestServer(t, Config{})
		cases := []struct {
			name, body string
			code       int
		}{
			{"scatter", requestBody("scatter", ""), http.StatusBadRequest},
			{"bad strategy", requestBody("scan(+)", `,"strategy":"best"`), http.StatusBadRequest},
			{"estimate overflows", requestBody("scan(+)", `,"ts":1e308`), http.StatusBadRequest},
			{"two values", `{"program":"bcast"}{"program":"scan(+)"}`, http.StatusBadRequest},
			{"oversize", `{"program":"bcast"` + strings.Repeat(" ", maxRequestBytes) + `}`, http.StatusRequestEntityTooLarge},
			{"over 4 KiB", `{"program":"bcast ; scan(+)"` + strings.Repeat(" ", maxIndexedBody) + `}`, http.StatusOK},
		}
		for _, src := range overflowPrograms {
			cases = append(cases, struct {
				name, body string
				code       int
			}{"overflow", requestBody(src, searchSelect), http.StatusInternalServerError})
		}
		for _, c := range cases {
			for i := 0; i < 4; i++ {
				if ans := postBody(t, ts.URL, c.body); ans.code != c.code {
					t.Errorf("%s, request %d: HTTP %d, want %d: %s", c.name, i, ans.code, c.code, ans.body)
				}
			}
		}
		if st := s.Metrics().Cache; st.ByBody != 0 || st.Bodies != 0 {
			t.Errorf("by_body = %d, bodies = %d, want 0 and 0", st.ByBody, st.Bodies)
		}
	})
}

// TestLookupCountedOnce: every request that reaches the planner is one of
// hits, misses and coalesced, whichever door it came through.
func TestLookupCountedOnce(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: 2, CacheShards: 1})
	a := requestBody("bcast ; scan(+) ; scan(+)", `,"m":16`)
	steps := []struct {
		body    string
		planned bool
	}{
		{a, true}, {a, true}, {a, true}, {a, true},
		{`{"m":16, "program":"bcast;scan(+);scan(+)"}`, true},
		{`{"m":16, "program":"bcast;scan(+);scan(+)"}`, true},
		{`{"program":`, false},
		{requestBody("scan(???)", ""), false},
		{a + "x", false},
		{requestBody("scatter", ""), true}, {requestBody("scatter", ""), true},
		{requestBody(overflowPrograms[0], searchSelect), true},
		{requestBody("reduce(max)", ""), true},
		{requestBody("bcast ; reduce(min)", ""), true}, // evicts a's plan
		{a, true}, {a, true}, {a, true},
		{`{"program":"scan(+)"` + strings.Repeat("\n", maxIndexedBody) + `}`, true},
		{`{"program":"scan(+)"` + strings.Repeat("\n", maxIndexedBody) + `}`, true},
	}
	planned := uint64(0)
	for i, st := range steps {
		postBody(t, ts.URL, st.body)
		if st.planned {
			planned++
		}
		c := s.Metrics().Cache
		if got := c.Hits + c.Misses + c.Coalesced; got != planned {
			t.Fatalf("after step %d (%.40s): hits %d + misses %d + coalesced %d = %d, want %d",
				i, st.body, c.Hits, c.Misses, c.Coalesced, got, planned)
		}
	}
	if c := s.Metrics().Cache; c.ByBody == 0 || c.ByBody >= c.Hits {
		t.Errorf("by_body = %d of %d hits: the sequence should use both doors", c.ByBody, c.Hits)
	}
}

// TestBodyIndexIsBounded: the index holds no more bodies than the cache
// holds plans, however many spellings hit.
func TestBodyIndexIsBounded(t *testing.T) {
	const size = 8
	s, ts := newTestServer(t, Config{CacheSize: size, CacheShards: 2})
	first := postBody(t, ts.URL, requestBody("scan(*) ; scan(+)", ""))
	for i := 1; i <= 3*size; i++ {
		body := `{"program":"scan(*) ; scan(+)"` + strings.Repeat(" ", i) + `}`
		ans := postBody(t, ts.URL, body)
		if ans.code != http.StatusOK || len(ans.body) != len(first.body)-1 {
			t.Fatalf("spelling %d: HTTP %d %s", i, ans.code, ans.body)
		}
		if st := s.Metrics().Cache; st.Bodies > size || st.Bodies != min(i, size) {
			t.Fatalf("after %d hitting spellings the index holds %d bodies, want min(%d, %d)", i, st.Bodies, i, size)
		}
	}
	if m := s.Metrics(); m.EngineRuns != 1 || m.Cache.Hits != 3*size {
		t.Errorf("engine runs = %d, hits = %d, want 1 and %d", m.EngineRuns, m.Cache.Hits, 3*size)
	}
}

// serveDirect runs one request through the handler without a socket.
func serveDirect(h http.Handler, body string) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/optimize", strings.NewReader(body)))
	return strconv.Itoa(rec.Code) + " " + rec.Header().Get("Content-Length") + "\n" + rec.Body.String()
}

// TestCacheBodyIndexRace: 16 clients over 8 bodies and a cache of 4 plans,
// so lookups by body, remembering, eviction and recomputation overlap.
// Every answer is one of the two a lone client gets for that body: the
// miss or the hit.
func TestCacheBodyIndexRace(t *testing.T) {
	programs := []string{
		"scan(+) ; reduce(+)", "scan(*) ; scan(+)", "bcast ; scan(+) ; scan(+)",
		"reduce(max)", "allreduce(+) ; reduce(+)", "map inc ; scan(+)",
		"bcast ; reduce(min)", "gather ; scatter ; scan(+)",
	}
	bodies := make([]string, len(programs))
	miss, hit := make([]string, len(programs)), make([]string, len(programs))
	lone := New(Config{}).Handler()
	for i, src := range programs {
		bodies[i] = requestBody(src, `,"m":16`)
		miss[i] = serveDirect(lone, bodies[i])
		hit[i] = serveDirect(lone, bodies[i])
		if again := serveDirect(lone, bodies[i]); again != hit[i] || !strings.Contains(hit[i], `"cached": true`) || miss[i] == hit[i] {
			t.Fatalf("%s: a lone client's answers are not miss, hit, hit", bodies[i])
		}
	}

	const clients, rounds = 16, 40
	s := New(Config{CacheSize: 4, CacheShards: 2})
	h := s.Handler()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (c*5 + r*3) % len(bodies)
				if got := serveDirect(h, bodies[i]); got != miss[i] && got != hit[i] {
					t.Errorf("client %d, round %d, %s: answered\n%s\nwant the lone client's miss or hit", c, r, bodies[i], got)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	m := s.Metrics()
	if got := m.Cache.Hits + m.Cache.Misses + m.Cache.Coalesced; got != clients*rounds || m.Optimized != clients*rounds {
		t.Errorf("hits + misses + coalesced = %d, optimized = %d, want %d each", got, m.Optimized, clients*rounds)
	}
	if m.Cache.Bodies > 4 {
		t.Errorf("the index holds %d bodies, the cache was asked for 4 plans", m.Cache.Bodies)
	}
}

// bareWriter is the least a handler can write to: a header map that is
// kept between requests, and a count of what was written.
type bareWriter struct {
	header http.Header
	code   int
	n      int
}

func (w *bareWriter) Header() http.Header         { return w.header }
func (w *bareWriter) WriteHeader(code int)        { w.code = code }
func (w *bareWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// TestIndexedHitAllocs pins what handleOptimize allocates for a request
// the index knows, the request and the writer being the caller's: nothing
// (the pin leaves room for one refill of the pool). The decode, parse, key
// and encode it stands in for allocate about 40 times.
func TestIndexedHitAllocs(t *testing.T) {
	s := New(Config{})
	body := []byte(requestBody("bcast ; scan(+) ; scan(+)", `,"p":64,"m":64`))
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/optimize", rd)
	w := &bareWriter{header: http.Header{}}
	call := func() {
		rd.Reset(body)
		w.n = 0
		s.handleOptimize(w, req)
	}
	call()
	call()
	want := w.n
	before := s.Metrics().Cache.ByBody
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		call()
		if w.code != http.StatusOK || w.n != want {
			t.Fatalf("HTTP %d, %d bytes, want 200 and %d", w.code, w.n, want)
		}
	})
	if got := s.Metrics().Cache.ByBody - before; got != runs+1 {
		t.Fatalf("%d of %d requests were answered through the index", got, runs+1)
	}
	const bound = 1
	if allocs > bound {
		t.Errorf("an indexed hit allocates %.1f times in the handler, want ≤ %d", allocs, bound)
	}
	t.Logf("%.1f allocations", allocs)
}

// TestCacheShardIsFNV1a holds the inlined hash to hash/fnv: a key lands
// in the shard it always landed in.
func TestCacheShardIsFNV1a(t *testing.T) {
	c := NewCache(4096, 64)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4000; i++ {
		key := KeyOpts(rules.Canonical(rules.RandProgram(rng, 12)), core.Machine{Ts: rng.Float64() * 1000, Tw: 1, P: 1 + rng.Intn(64), M: 1 + rng.Intn(4096)}, StrategySearch, i%2 == 0)
		if i%100 == 0 {
			key = key[:i/100]
		}
		if got, want := c.shard(key), &c.shards[fnvShard(key)&c.mask]; got != want {
			t.Fatalf("key %q: another shard than hash/fnv's", key)
		}
	}
}

func fnvShard(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32()
}

// TestHitOutlivesTheBody: a miss parses its program where the pooled body
// buffer holds it, and nothing of the plan may keep a byte of that buffer.
// The buffer that carried a program's first request is taken out of the
// pool and overwritten; the hits that follow, through the long way round
// and through the body index, answer byte for byte what the miss did but
// for the cached line.
func TestHitOutlivesTheBody(t *testing.T) {
	var made []*bytes.Buffer
	defer func(newBuf func() any) { bodyPool.New = newBuf }(bodyPool.New)
	bodyPool.New = func() any {
		b := new(bytes.Buffer)
		made = append(made, b)
		return b
	}
	drain := func() { // take every buffer out of the pool
		for n := len(made); len(made) == n; {
			bodyPool.Get()
		}
	}
	s := New(Config{})
	for _, src := range missPool(5, 20) {
		body := requestBody(src, `,"p":64,"m":64,"strategy":"search","select":true`)
		drain()
		miss := httptest.NewRecorder()
		s.handleOptimize(miss, httptest.NewRequest(http.MethodPost, "/optimize", strings.NewReader(body)))
		carrier := made[len(made)-1].Bytes()
		copy(carrier[:cap(carrier)], bytes.Repeat([]byte("#"), cap(carrier)))
		drain()
		want := strings.Replace(miss.Body.String(), `"cached": false`, `"cached": true`, 1)
		for i := 0; i < 2; i++ {
			hit := httptest.NewRecorder()
			s.handleOptimize(hit, httptest.NewRequest(http.MethodPost, "/optimize", strings.NewReader(body)))
			if miss.Code != http.StatusOK || hit.Body.String() != want {
				t.Fatalf("%s: HTTP %d, hit %d:\n%s\nwant\n%s", src, miss.Code, i, hit.Body.String(), want)
			}
		}
	}
}
