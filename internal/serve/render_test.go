package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/rules"
	"repro/internal/term"
)

// encoderOracle is the rendering every body had before encodeJSON indented
// Marshal's bytes itself: a json.Encoder with two-space indentation. It is
// the reference encodeJSON is held to.
func encoderOracle(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return buf.Bytes()
}

func encoded(v any) []byte {
	var buf bytes.Buffer
	encodeJSON(&buf, v)
	return buf.Bytes()
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
		map[string]string{"error": `bad request body: '<' after the JSON value & "more" ` + " \xff"})
	for _, v := range values {
		if got, want := encoded(v), encoderOracle(v); !bytes.Equal(got, want) {
			t.Fatalf("encodeJSON(%+v):\n%s\nwant\n%s", v, got, want)
		}
	}
}

// fuzzValue builds a JSON value from data: a byte picks the kind of the
// next value — array, object, string, number, bool or null — and an array
// or object of n members takes the values that follow, an object's keys
// being strings taken from data too. An object is a json.RawMessage of its
// members in order, not a map: Marshal sorts a map's keys, and the sort's
// path through a randomly ordered map would make the fuzzer's coverage
// differ between two runs of one input.
func fuzzValue(data []byte, depth int) (any, []byte) {
	if len(data) == 0 {
		return nil, nil
	}
	c, data := data[0], data[1:]
	n := int(c>>3) % 4
	str := func() string {
		k := min(n*3, len(data))
		s := string(data[:k])
		data = data[k:]
		return s
	}
	switch c % 6 {
	case 0:
		arr := []any{}
		for i := 0; i < n && depth < 8; i++ {
			var v any
			v, data = fuzzValue(data, depth+1)
			arr = append(arr, v)
		}
		return arr, data
	case 1:
		obj := []byte{'{'}
		for i := 0; i < n && depth < 8; i++ {
			if i > 0 {
				obj = append(obj, ',')
			}
			key, _ := json.Marshal(str())
			var v any
			v, data = fuzzValue(data, depth+1)
			val, _ := json.Marshal(v)
			obj = append(append(append(obj, key...), ':'), val...)
		}
		return json.RawMessage(append(obj, '}')), data
	case 2:
		return str(), data
	case 3:
		return float64(int8(c)) / 3, data
	case 4:
		return c&8 != 0, data
	}
	return nil, data
}

// FuzzIndent: whatever the strings and the nesting, encodeJSON renders
// what the Encoder rendered — for values built from the fuzzer's bytes and
// for the daemon's own shapes carrying its string.
func FuzzIndent(f *testing.F) {
	for _, seed := range []struct {
		s     string
		shape []byte
	}{
		{`plain`, []byte{0, 1, 2}},
		{`"quoted" \back\slash\\ \"`, []byte{8, 0, 8, 0, 9, 1}},
		{`<script>&amp;</script>`, []byte{24, 2, 1, 9, 0}},
		{"line sep para\n\t\r", []byte{16, 16, 0, 1, 0}},
		{"invalid \xff\xfe utf-8 \xc3", []byte{2, 255, 254, 3}},
		{"", []byte{24, 0, 0, 0, 9, 1, 1}},
		{"[] {} [{}] {\"a\":[]}", []byte{8, 8, 8, 0}},
	} {
		f.Add(seed.s, seed.shape)
	}
	f.Fuzz(func(t *testing.T, s string, shape []byte) {
		built, _ := fuzzValue(shape, 0)
		values := []any{
			built,
			s,
			map[string]string{"error": s},
			map[string]any{s: []any{s, []any{}, map[string]any{}, [][]int{{}, {}}, built}},
			Response{
				Plan:    Plan{Canonical: s, Optimized: s, Applications: []string{s, ""}, Search: &rules.SearchStats{}},
				Machine: core.Machine{Ts: float64(len(s)) / 7, P: len(shape)},
			},
			Snapshot{UptimeSeconds: math.Pi * float64(len(shape))},
		}
		for _, v := range values {
			if got, want := encoded(v), encoderOracle(v); !bytes.Equal(got, want) {
				t.Fatalf("encodeJSON(%#v):\n%q\nwant\n%q", v, got, want)
			}
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
