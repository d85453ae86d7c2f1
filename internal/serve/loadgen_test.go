package serve

import (
	"net/http/httptest"
	"testing"
)

// TestLoadgenAgainstLiveServer runs a small end-to-end load: a real
// listener, real sockets, both phases.
func TestLoadgenAgainstLiveServer(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	rep, err := Loadgen(LoadConfig{
		Target:   ts.URL,
		Requests: 2000,
		Clients:  8,
		Distinct: 20,
		Seed:     7,
		P:        8,
		M:        16,
	})
	if err != nil {
		t.Fatalf("Loadgen: %v", err)
	}
	if len(rep.Phases) != 2 {
		t.Fatalf("phases = %d, want churn + repeated", len(rep.Phases))
	}
	for _, ph := range rep.Phases {
		if ph.Errors != 0 {
			t.Errorf("phase %s: %d errors", ph.Name, ph.Errors)
		}
		if ph.Throughput <= 0 || ph.P50 <= 0 || ph.P99 < ph.P50 {
			t.Errorf("phase %s: implausible latencies %+v", ph.Name, ph)
		}
	}
	repeated := rep.Phases[1]
	if repeated.Name != "repeated" {
		t.Fatalf("second phase is %q", repeated.Name)
	}
	// 1800 requests over a pool of 20 programs: overwhelmingly cache hits.
	if repeated.CacheHitRate < 0.9 {
		t.Errorf("repeated-phase hit rate %.2f, want > 0.9", repeated.CacheHitRate)
	}
	// The churn phase is all misses over one rule set: its derivations
	// repeat instances, and the verifier evaluates each once.
	if v := rep.Server.Verify; v.Derivations == 0 || v.InstanceHits == 0 {
		t.Errorf("verifier counters after the miss phase: %+v", v)
	}
	if rep.Server.Requests == 0 || rep.Server.Cache.Hits == 0 {
		t.Errorf("final snapshot empty: %+v", rep.Server)
	}
}

func TestLoadgenRejectsBadConfig(t *testing.T) {
	if _, err := Loadgen(LoadConfig{Requests: 0}); err == nil {
		t.Error("zero requests must error")
	}
	if _, err := Loadgen(LoadConfig{Requests: 10, Target: "http://127.0.0.1:1"}); err == nil {
		t.Error("unreachable target must error")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(sorted, 0.5); p != 5 {
		t.Errorf("p50 = %g", p)
	}
	if p := percentile(sorted, 0.99); p != 9 {
		t.Errorf("p99 = %g", p)
	}
	if p := percentile(nil, 0.5); p != 0 {
		t.Errorf("empty percentile = %g", p)
	}
}

func TestHitRateDelta(t *testing.T) {
	before := CacheStats{Hits: 10, Coalesced: 2, Misses: 8}
	after := CacheStats{Hits: 40, Coalesced: 2, Misses: 18}
	// 30 new hits, 10 new misses.
	if r := hitRateDelta(before, after); r != 0.75 {
		t.Errorf("hit rate delta = %g, want 0.75", r)
	}
	if r := hitRateDelta(after, after); r != 0 {
		t.Errorf("no traffic delta = %g, want 0", r)
	}
}
