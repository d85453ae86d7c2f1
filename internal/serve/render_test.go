package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/coll/sel"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/rules"
	"repro/internal/term"
)

// encoderOracle is the rendering every body had before the daemon wrote
// its JSON itself: a json.Encoder with two-space indentation. It is the
// reference the jsonWriter is held to.
func encoderOracle(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return buf.Bytes()
}

// rendered is v as the writer renders the daemon's body of v's shape: a
// Response, a Snapshot, an error (map[string]string{"error": …}) or
// /healthz (map[string]any{"in_flight": int64, "status": "ok",
// "uptime_s": float64}).
func rendered(v any) []byte {
	jw := getWriter()
	defer jw.free()
	switch v := v.(type) {
	case Response:
		jw.response(&v)
	case Snapshot:
		jw.snapshot(&v)
	case map[string]string:
		jw.errorBody(v["error"])
	case map[string]any:
		jw.health(v["in_flight"].(int64), v["uptime_s"].(float64))
	default:
		panic(fmt.Sprintf("no body has the shape %T", v))
	}
	return bytes.Clone(jw.bytes())
}

// TestEncodeJSONMatchesEncoder: the answers of the generators' programs —
// dense and sparse, greedy and searched with selection, missed and hit —
// and the daemon's other bodies render as the Encoder rendered them.
func TestEncodeJSONMatchesEncoder(t *testing.T) {
	s := New(Config{})
	pl := s.Planner()
	rng := rand.New(rand.NewSource(31))
	var values []any
	for i := 0; i < 300; i++ {
		mach := core.Machine{Ts: 1000 * rng.Float64(), Tw: rng.Float64(), P: 1 << rng.Intn(7), M: 1 + rng.Intn(4096)}
		var prog term.Seq
		if i%4 == 3 {
			mach.P = 1 + rng.Intn(6)
			prog = rules.RandSparseProgram(rng, mach.P)
		} else {
			prog = rules.RandProgram(rng, 12)
		}
		for _, search := range []bool{false, true} {
			strat := StrategyGreedy
			if search {
				strat = StrategySearch
			}
			plan, cached, err := pl.PlanTermOpts(prog, mach, strat, search)
			if err != nil {
				values = append(values, map[string]string{"error": err.Error()})
				continue
			}
			values = append(values, Response{Plan: plan, Cached: cached, Machine: mach})
		}
	}
	values = append(values, s.Metrics(), map[string]any{"status": "ok", "in_flight": int64(0), "uptime_s": 12.5},
		map[string]any{"status": "ok", "in_flight": int64(-3), "uptime_s": 1e-7},
		map[string]string{"error": `bad request body: '<' after the JSON value & "more" ` + " \xff\u2028\x00\x7f"})
	for _, v := range values {
		if got, want := rendered(v), encoderOracle(v); !bytes.Equal(got, want) {
			t.Fatalf("rendered(%+v):\n%s\nwant\n%s", v, got, want)
		}
	}
}

// renderShapes are the daemon's bodies filled with s, x and n: every field
// of every shape, each omitempty field both present and absent, and the
// floats in both of the Encoder's notations (and ±Inf, NaN: no body).
func renderShapes(s string, x float64, n int64) []any {
	u := uint64(n)
	full := Plan{
		Canonical: s, Optimized: s + s, Applications: []string{s, ""},
		CostBefore: x, CostAfter: -x, Verified: n%2 == 0, Strategy: Strategy(s),
		Search: &rules.SearchStats{Nodes: int(n), MemoHits: -int(n), Pruned: 7, Exhausted: n%3 == 0, GreedyCost: x / 3, BestCost: x * x},
		Selection: []sel.Selection{
			{Stage: int(n), Collective: s, Algo: cost.Algo(s), Segments: int(n % 5), M: -int(n), Predicted: x, Butterfly: x * 1e21},
			{Algo: cost.AlgoButterfly, Predicted: x * 1e-6, Butterfly: math.Nextafter(x, 0)},
		},
	}
	return []any{
		Response{Plan: full, Cached: n%2 == 1, Machine: core.Machine{Ts: x, Tw: x / 7, P: int(n), M: -int(n)}},
		Response{Plan: Plan{Canonical: s, Strategy: StrategyGreedy, Applications: []string{}}, Machine: core.Machine{Tw: 1 / x}},
		Snapshot{
			UptimeSeconds: x, Requests: u, Optimized: u / 2, Errors: u / 3, InFlight: n, EngineRuns: -n,
			Verify: rules.VerifyStats{Derivations: u, ZeroApplication: 1, InstanceChecks: 2, InstanceHits: 3, TailsOnce: 4, TailsTwice: 5, Packed: 6, PerInput: u >> 1},
			Cache:  CacheStats{Hits: u, Misses: 1, Coalesced: 2, Evictions: 3, Size: int(n), Capacity: 4096, Shards: 64, ByBody: 5, Bodies: -int(n)},
		},
		map[string]string{"error": s},
		map[string]any{"in_flight": n, "status": "ok", "uptime_s": x},
	}
}

// FuzzIndent: whatever the strings and the floats, the writer renders the
// daemon's bodies as the Encoder rendered them.
func FuzzIndent(f *testing.F) {
	for _, seed := range []struct {
		s string
		x float64
		n int64
	}{
		{`plain`, 1000, 64},
		{`"quoted" \back\slash\\ \"`, 1e-6, -1},
		{`<script>&amp;</script>`, math.Nextafter(1e-6, 0), 0},
		{"line\u2028sep\u2029para\n\t\r\b\f\x00\x1f\x7f", 1e21, math.MaxInt64},
		{"invalid \xff\xfe utf-8 \xc3", math.Nextafter(1e21, 0), math.MinInt64},
		{"", 5e-324, 3},
		{"[] {} [{}] {\"a\":[]}", math.MaxFloat64, 7},
		{"\u00e9\U0001f600 \ufffd\xed\xa0\x80", math.Copysign(0, -1), 2},
		{"1e-07", 1.5e-7, -2},
		{"nan", math.NaN(), 1},
		{"inf", math.Inf(-1), 1},
		{"big", 123456789012345678901234567890.0, 9},
	} {
		f.Add(seed.s, seed.x, seed.n)
	}
	f.Fuzz(func(t *testing.T, s string, x float64, n int64) {
		for _, v := range renderShapes(s, x, n) {
			if got, want := rendered(v), encoderOracle(v); !bytes.Equal(got, want) {
				t.Fatalf("rendered(%#v):\n%q\nwant\n%q", v, got, want)
			}
		}
	})
}

// TestRenderAllocs pins rendering a miss's answer — search and selection —
// into a warm pooled writer to no allocation: the parent of the writer,
// json.Marshal and an indent pass, measured 2.
func TestRenderAllocs(t *testing.T) {
	pl := NewPlanner(16, 1)
	prog, err := pl.ParseProgram(missPool(1, 1)[0])
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultConfig().Machine
	plan, _, err := pl.PlanTermOpts(prog, m, StrategySearch, true)
	if err != nil {
		t.Fatal(err)
	}
	resp := Response{Plan: plan, Machine: m}
	var n int
	allocs := testing.AllocsPerRun(200, func() {
		jw := getWriter()
		jw.response(&resp)
		n = len(jw.bytes())
		jw.free()
	})
	if want := len(encoderOracle(resp)); n != want {
		t.Fatalf("rendered %d bytes, the Encoder %d", n, want)
	}
	if allocs > 0 && !raceEnabled {
		t.Errorf("rendering a miss allocates %.0f times, want 0", allocs)
	}
}

// BenchmarkRender renders the answers of plan-miss pool programs, as the
// writer and as the Encoder.
func BenchmarkRender(b *testing.B) {
	pl := NewPlanner(4096, 64)
	m := DefaultConfig().Machine
	var resps []Response
	for _, src := range missPool(1, 400) {
		prog, err := pl.ParseProgram(src)
		if err != nil {
			b.Fatal(err)
		}
		plan, _, err := pl.PlanTermOpts(prog, m, StrategySearch, true)
		if err != nil {
			b.Fatal(err)
		}
		resps = append(resps, Response{Plan: plan, Machine: m})
	}
	b.Run("writer", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			jw := getWriter()
			jw.response(&resps[i%len(resps)])
			jw.free()
		}
	})
	b.Run("encoder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encoderOracle(resps[i%len(resps)])
		}
	})
}

// keyOracle is KeyOpts as it was written with fmt.Sprintf, the reference
// the strconv rendering is held to.
func keyOracle(canonical string, m core.Machine, strat Strategy, autoSel bool) string {
	k := fmt.Sprintf("%s|ts=%g|tw=%g|p=%d|m=%d", canonical, m.Ts, m.Tw, m.P, m.M)
	if strat == StrategySearch {
		k += "|strategy=search"
	}
	if autoSel {
		k += "|select"
	}
	return k
}

// TestKeyOptsMatchesSprintf: over random programs and machines — the
// floats including the edges of %g's two notations, the extremes of
// float64, ±0, ±Inf and NaN — KeyOpts prints the key fmt printed.
func TestKeyOptsMatchesSprintf(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	edges := []float64{0, math.Copysign(0, -1), 1, 1e20, 1e21, 1e-4, 1e-5, 1e-7, 5e-324, math.SmallestNonzeroFloat64,
		1e308, math.MaxFloat64, -1.5, 123456789, 0.1, 1.0 / 3, math.Inf(1), math.Inf(-1), math.NaN()}
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return edges[rng.Intn(len(edges))]
		case 1:
			return math.Float64frombits(rng.Uint64())
		case 2:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
		return float64(rng.Intn(5000))
	}
	for i := 0; i < 20000; i++ {
		canonical := rules.Canonical(rules.RandProgram(rng, 12))
		m := core.Machine{Ts: float(), Tw: float(), P: int(rng.Int63()) >> rng.Intn(63), M: rng.Intn(1 << 20)}
		if i%3 == 0 {
			m.P, m.M = -m.P, math.MinInt+rng.Intn(3)
		}
		strat := []Strategy{StrategyGreedy, StrategySearch}[i%2]
		autoSel := i%5 < 2
		if got, want := KeyOpts(canonical, m, strat, autoSel), keyOracle(canonical, m, strat, autoSel); got != want {
			t.Fatalf("KeyOpts = %q, want %q", got, want)
		}
	}
}

// TestKeyOptsAllocs pins KeyOpts to the one allocation of the key.
func TestKeyOptsAllocs(t *testing.T) {
	canonical := "bcast ; scan(+) ; scan(*) ; allreduce(max) ; map inc ; reduce(left)"
	m := core.Machine{Ts: math.Copysign(math.MaxFloat64, -1), Tw: 5e-324, P: math.MinInt, M: math.MaxInt}
	var sink string
	if a := testing.AllocsPerRun(100, func() { sink = KeyOpts(canonical, m, StrategySearch, true) }); a != 1 {
		t.Errorf("KeyOpts allocates %.0f times for %q, want 1", a, sink)
	}
}
