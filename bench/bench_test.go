package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/mpbackend"
)

// TestMain makes the test binary a multi-process worker when the backend
// re-executes it, and runs the tests from the repository root, where the
// benchmark itself runs.
func TestMain(m *testing.M) {
	processStart = time.Now()
	mpbackend.MaybeWorker()
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func TestSameSeedSameInputs(t *testing.T) {
	digest := func(seed int64) uint64 {
		corpus, err := buildCorpus(seed, mpRanks, 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(corpus) != 14 {
			t.Fatalf("corpus has %d pairs, want 14", len(corpus))
		}
		return refDigest(corpus)
	}
	if digest(5) != digest(5) {
		t.Error("the same seed built two different corpora")
	}
	if digest(5) == digest(6) {
		t.Error("two seeds built the same inputs")
	}
	for _, stages := range []int{hitMaxStages, missMaxStages} {
		a, b := planPool(5, 500, stages), planPool(5, 500, stages)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("the same seed drew two different request pools (≤ %d stages)", stages)
		}
		seen := map[string]bool{}
		for _, src := range a {
			if seen[src] {
				t.Errorf("program %q drawn twice", src)
			}
			seen[src] = true
		}
	}
}

func TestRaggedCountsSumToM(t *testing.T) {
	for _, p := range []int{4, 8} {
		for _, m := range []int{16, 1024, 4096} {
			sum, zeros := 0, 0
			for _, c := range raggedCounts(p, m) {
				sum += c
				if c == 0 {
					zeros++
				}
			}
			if sum != m || zeros == 0 {
				t.Errorf("raggedCounts(%d, %d): Σ = %d with %d empty blocks, want Σ = m and some empty", p, m, sum, zeros)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g, %g, want 3.5, 13.5, 31", q1, q2, q3)
	}
}

type declared struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// TestDeclarationMatchesDriver holds BENCHMARK.json and the driver's own
// lists equal: workloads, end-to-end and per-layer metrics.
func TestDeclarationMatchesDriver(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []declared `json:"end_to_end"`
		PerLayer []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", file.Paths)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, driver runs %v", names, workloadNames())
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got []declared, want []metricDecl) {
		var w []declared
		for _, m := range want {
			w = append(w, declared{m.name, m.unit, m.better})
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) || (m.better != "lower" && m.better != "higher") {
				t.Errorf("%s metric %+v is outside the contract's alphabet", kind, m)
			}
			if seen[m.name] {
				t.Errorf("metric name %s used twice", m.name)
			}
			seen[m.name] = true
		}
		if !reflect.DeepEqual(got, w) {
			want, _ := json.Marshal(w)
			t.Errorf("BENCHMARK.json %s differs from the driver's list; the driver's is:\n%s", kind, want)
		}
	}
	check("end_to_end", file.EndToEnd, endToEndMetrics)
	check("per_layer", file.PerLayer, perLayerMetrics)
	if len(perLayerMetrics) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayerMetrics))
	}
}

// exactMetrics repeat to the digit between two runs on one seed: they are
// counts per operation, never times. Each is read on the workload that
// makes it non-zero; rules.plan_cost_ratio is exact on the exec workloads
// only (on the plan workloads it is taken over the sampled responses).
var exactMetrics = map[string][]string{
	"exec-latency": {
		"backend.msgs_per_sweep", "backend.words_per_sweep", "rules.plan_cost_ratio",
		"rules.search_nodes", "rules.search_pruned", "rules.search_exhausted_share",
		"rules.applications_per_plan", "rules.search_gain_share", "sel.nonbutterfly_share",
	},
	"exec-multiproc": {"mpbackend.msgs_per_sweep", "mpbackend.words_per_sweep", "rules.plan_cost_ratio"},
	"plan-miss":      {"serve.cache_hit_ratio", "serve.engine_runs_per_op", "serve.coalesced_per_op"},
}

// TestSmoke runs every workload for a fraction of a second, untraced and
// traced: every operation must check out, each run must emit exactly its
// declared metrics, and the exact metrics must repeat.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload, spawning rank processes")
	}
	for _, w := range workloads {
		cfg := config{workload: w.name, seed: 3, seconds: 0.2}
		plain, err := runOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.trace = true
		traced, err := runOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, run := range []struct {
			res  *result
			want []metricDecl
		}{{plain, endToEndMetrics}, {traced, perLayerMetrics}} {
			if !run.res.Correct || run.res.Failed != 0 || run.res.Attempted < 1 {
				t.Errorf("%s: correct=%v attempted=%d failed=%d", w.name, run.res.Correct, run.res.Attempted, run.res.Failed)
			}
			if len(run.res.Metrics) != len(run.want) {
				t.Errorf("%s emitted %d metrics, declared %d", w.name, len(run.res.Metrics), len(run.want))
			}
			for _, m := range run.want {
				if got, ok := run.res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s: metric %s missing or in unit %q, want %q", w.name, m.name, got.Unit, m.unit)
				}
			}
		}
		for _, m := range endToEndMetrics {
			if plain.Metrics[m.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, m.name, plain.Metrics[m.name].Value)
			}
		}
		if exactMetrics[w.name] == nil {
			continue
		}
		again, err := runOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range exactMetrics[w.name] {
			if a, b := traced.Metrics[name].Value, again.Metrics[name].Value; a != b {
				t.Errorf("%s: exact metric %s read %v then %v on the same seed", w.name, name, a, b)
			}
		}
	}
}
