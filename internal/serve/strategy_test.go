package serve

import (
	"net/http"
	"testing"
)

func TestParseStrategy(t *testing.T) {
	cases := []struct {
		in      string
		want    Strategy
		wantErr bool
	}{
		{"", StrategyGreedy, false},
		{"greedy", StrategyGreedy, false},
		{"search", StrategySearch, false},
		{"Search", "", true},
		{"exhaustive", "", true},
	}
	for _, c := range cases {
		got, err := ParseStrategy(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseStrategy(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
			continue
		}
		if err == nil && got != c.want {
			t.Errorf("ParseStrategy(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// trapProgram is the committed greedy-trap counterexample (see
// rules.SearchOptimize and docs/RULES.md): on the default machine the
// greedy engine fuses the two scans and forfeits the cheaper
// scan-reduce fusion.
const trapProgram = "scan(*) ; scan(+) ; reduce(+)"

func TestOptimizeStrategySearch(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	greedy, httpResp := postOptimize(t, ts.URL, Request{Program: trapProgram})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("greedy: HTTP %d", httpResp.StatusCode)
	}
	if greedy.Strategy != StrategyGreedy {
		t.Errorf("default strategy = %q, want %q", greedy.Strategy, StrategyGreedy)
	}
	if greedy.Search != nil {
		t.Errorf("greedy plan carries search stats: %+v", greedy.Search)
	}

	searched, httpResp := postOptimize(t, ts.URL, Request{Program: trapProgram, Strategy: "search"})
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("search: HTTP %d", httpResp.StatusCode)
	}
	if searched.Strategy != StrategySearch {
		t.Errorf("strategy = %q, want %q", searched.Strategy, StrategySearch)
	}
	if searched.Cached {
		t.Error("first searched request must be a miss: strategies must not share cache entries")
	}
	if searched.Search == nil || !searched.Search.Exhausted {
		t.Fatalf("searched plan missing exhausted search stats: %+v", searched.Search)
	}
	if searched.CostAfter >= greedy.CostAfter {
		t.Errorf("search did not beat greedy on the trap: %g vs %g", searched.CostAfter, greedy.CostAfter)
	}
	if !searched.Verified {
		t.Error("searched plan not verified")
	}

	// The searched plan is now resident under its own key.
	again, _ := postOptimize(t, ts.URL, Request{Program: trapProgram, Strategy: "search"})
	if !again.Cached {
		t.Error("repeat searched request must hit the cache")
	}
	if again.Optimized != searched.Optimized {
		t.Errorf("cache returned a different searched plan: %q vs %q", again.Optimized, searched.Optimized)
	}
}

func TestOptimizeStrategyErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, httpResp := postOptimize(t, ts.URL, Request{Program: "scan(+)", Strategy: "simulated-annealing"})
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad strategy: HTTP %d, want 400", httpResp.StatusCode)
	}
}
