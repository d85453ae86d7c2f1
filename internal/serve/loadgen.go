package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/rules"
)

// LoadConfig drives Loadgen: replay randomized optimization requests
// against a live daemon over real sockets and record throughput,
// latency percentiles and cache behavior per phase.
type LoadConfig struct {
	// Target is the daemon's base URL, e.g. "http://127.0.0.1:8080".
	Target string
	// Requests is the total request budget of the two main phases: 10%
	// churn (a wide program pool, populating the cache), 90% repeated
	// workload (a pool of Distinct programs, exercising hits).
	Requests int
	// Clients is the number of concurrent client goroutines.
	Clients int
	// Distinct is the program-pool size of the repeated phase.
	Distinct int
	// Seed makes the workload reproducible.
	Seed int64
	// P and M are the machine parameters sent with each request.
	P, M int
	// Strategy is sent with each request ("" or "greedy" for the greedy
	// engine, "search" for the global plan search).
	Strategy string
	// Select requests algorithm auto-selection with every request
	// (Request.Select), exercising the select-qualified cache keys.
	Select bool
	// Out receives progress lines (nil for quiet).
	Out io.Writer
}

// PhaseResult is the measurement of one load phase.
type PhaseResult struct {
	Name     string
	Requests int
	Errors   int
	// Elapsed is the phase's wall time in seconds.
	Elapsed float64
	// Throughput is requests per second over the phase.
	Throughput float64
	// P50/P95/P99 are client-observed latencies in microseconds.
	P50, P95, P99 float64
	// CacheHitRate is the server-side hit rate over the phase (from
	// /metrics deltas: hits+coalesced over all lookups).
	CacheHitRate float64
}

// LoadReport is what a load run measured: one result per phase and the
// daemon's /metrics snapshot when it ended.
type LoadReport struct {
	Phases []PhaseResult
	Server Snapshot
}

// Loadgen runs the workload and assembles the report. Request errors are
// counted per phase, and a transport-level failure aborts with an error.
func Loadgen(cfg LoadConfig) (LoadReport, error) {
	if cfg.Requests < 1 {
		return LoadReport{}, fmt.Errorf("loadgen: -requests must be positive, got %d", cfg.Requests)
	}
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	if cfg.Distinct < 1 {
		cfg.Distinct = 1
	}
	if cfg.P < 1 {
		cfg.P = 64
	}
	if cfg.M < 1 {
		cfg.M = 64
	}
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Clients * 2,
			MaxIdleConnsPerHost: cfg.Clients * 2,
		},
	}
	defer client.CloseIdleConnections()

	// Deterministic program pools. The churn pool is much wider than the
	// repeated pool, so the first phase is miss-heavy and the second
	// hit-heavy.
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	churnPool := randPool(rng, 16*cfg.Distinct)
	repeatPool := randPool(rng, cfg.Distinct)

	churnN := cfg.Requests / 10
	if churnN < 1 {
		churnN = 1
	}
	repeatN := cfg.Requests - churnN

	var rep LoadReport
	phases := []struct {
		name string
		n    int
		pool []string
	}{
		{"churn", churnN, churnPool},
		{"repeated", repeatN, repeatPool},
	}
	for _, ph := range phases {
		if ph.n < 1 {
			continue
		}
		before, err := fetchMetrics(client, cfg.Target)
		if err != nil {
			return rep, fmt.Errorf("loadgen: metrics before %s: %w", ph.name, err)
		}
		res, err := runPhase(client, cfg, ph.name, ph.n, ph.pool)
		if err != nil {
			return rep, err
		}
		after, err := fetchMetrics(client, cfg.Target)
		if err != nil {
			return rep, fmt.Errorf("loadgen: metrics after %s: %w", ph.name, err)
		}
		res.CacheHitRate = hitRateDelta(before.Cache, after.Cache)
		rep.Phases = append(rep.Phases, res)
		if cfg.Out != nil {
			fmt.Fprintf(cfg.Out, "%-14s %9d req %8.0f req/s  p50 %7.0fµs  p95 %7.0fµs  p99 %7.0fµs  hit %5.1f%%  errors %d\n",
				ph.name, res.Requests, res.Throughput, res.P50, res.P95, res.P99, 100*res.CacheHitRate, res.Errors)
		}
	}

	var err error
	if rep.Server, err = fetchMetrics(client, cfg.Target); err != nil {
		return rep, fmt.Errorf("loadgen: final metrics: %w", err)
	}
	return rep, nil
}

// randPool pre-renders n canonical random programs.
func randPool(rng *rand.Rand, n int) []string {
	pool := make([]string, n)
	for i := range pool {
		pool[i] = rules.Canonical(rules.RandProgram(rng, 6))
	}
	return pool
}

// runPhase fires n requests from the pool with cfg.Clients workers and
// aggregates client-side latencies.
func runPhase(client *http.Client, cfg LoadConfig, name string, n int, pool []string) (PhaseResult, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		lats     = make([]float64, 0, n)
		errCount int
		firstErr error
	)
	url := cfg.Target + "/optimize"
	start := time.Now()
	for w := 0; w < cfg.Clients; w++ {
		share := n / cfg.Clients
		if w < n%cfg.Clients {
			share++
		}
		if share == 0 {
			continue
		}
		wg.Add(1)
		go func(worker, share int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + 1000*int64(worker+1)))
			myLats := make([]float64, 0, share)
			myErrs := 0
			var myFirst error
			for i := 0; i < share; i++ {
				prog := pool[rng.Intn(len(pool))]
				body, _ := json.Marshal(Request{Program: prog, P: cfg.P, M: cfg.M, Strategy: cfg.Strategy, Select: cfg.Select})
				t0 := time.Now()
				resp, err := client.Post(url, "application/json", bytes.NewReader(body))
				if err != nil {
					myErrs++
					if myFirst == nil {
						myFirst = err
					}
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					myErrs++
					if myFirst == nil {
						myFirst = fmt.Errorf("%s: HTTP %d for %q", name, resp.StatusCode, prog)
					}
					continue
				}
				myLats = append(myLats, float64(time.Since(t0).Microseconds()))
			}
			mu.Lock()
			lats = append(lats, myLats...)
			errCount += myErrs
			if firstErr == nil {
				firstErr = myFirst
			}
			mu.Unlock()
		}(w, share)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if len(lats) == 0 {
		if firstErr != nil {
			return PhaseResult{}, fmt.Errorf("loadgen: phase %s: every request failed: %w", name, firstErr)
		}
		return PhaseResult{}, fmt.Errorf("loadgen: phase %s: no requests completed", name)
	}
	sort.Float64s(lats)
	return PhaseResult{
		Name:       name,
		Requests:   n,
		Errors:     errCount,
		Elapsed:    elapsed,
		Throughput: float64(n-errCount) / elapsed,
		P50:        percentile(lats, 0.50),
		P95:        percentile(lats, 0.95),
		P99:        percentile(lats, 0.99),
	}, nil
}

// percentile reads the q-quantile from sorted samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}

func fetchMetrics(client *http.Client, target string) (Snapshot, error) {
	resp, err := client.Get(target + "/metrics")
	if err != nil {
		return Snapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return Snapshot{}, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("/metrics: %w", err)
	}
	return s, nil
}

// hitRateDelta is the hit rate over the lookups between two snapshots.
func hitRateDelta(before, after CacheStats) float64 {
	hits := (after.Hits + after.Coalesced) - (before.Hits + before.Coalesced)
	total := hits + (after.Misses - before.Misses)
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}
