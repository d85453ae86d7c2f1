package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/term"
)

// The plan workloads drive the daemon's handler over a real loopback
// socket from inside the benchmark process: a closed loop of planClients
// keep-alive connections, each sending its next request when the previous
// reply has been read.
const (
	planClients = 2
	// hitPool is the number of distinct programs plan-hit cycles through;
	// it fits the daemon's 4096-plan cache 64 times over.
	hitPool      = 64
	hitMaxStages = 6
	// hitWarm requests precede timing: the pool 125 times over.
	hitWarm = 8000
	// missMaxStages bounds the never-repeated programs of plan-miss.
	missMaxStages = 12
	// missWarm requests fill the cache past its capacity before timing,
	// so every timed insert also evicts.
	missWarm = 4500
	// missRateCap sizes the pool of never-repeated programs: twice the
	// requests per second the reference box answers. A run that drains the
	// pool anyway ends early.
	missRateCap = 5000
	// sampleEvery picks the responses that are kept for re-verification
	// and, in a traced run, re-enacted under spans.
	sampleEvery = 64
)

type planSession struct {
	miss bool
	seed int64
	// pool holds the programs in canonical surface syntax. plan-hit
	// cycles through it; plan-miss consumes it front to back.
	pool []string
	next atomic.Int64
	mach core.Machine

	srv     *serve.Server
	hs      *http.Server
	served  chan error
	url     string
	clients []*http.Client
	// own is the benchmark's planner: it parses like the daemon's, and
	// its cache, which sees no traffic, re-enacts misses.
	own *serve.Planner
	// verified memoises recheck by pool index.
	verified map[int]checked
}

// maxMulStages is the numeric contract of the plan workloads. The daemon
// verifies every plan by evaluating spec and plan on small integers; a
// program that multiplies across all ranks more than once can leave
// float64's range there (16 ranks: 6^16, then that to the 16th, then again
// is past 1e308), spec and plan then overflow in different places, and the
// daemon answers 500 "semantic mismatch" (+Inf against NaN). With at most
// one such stage the largest value a 12-stage program can reach is below
// 1e230, so no operation of these workloads fails by construction.
// README.md lists the overflow cases found while sizing, with replay lines:
// they are the numeric-contract item's baseline, not this benchmark's.
const maxMulStages = 1

func inNumericContract(src string) bool { return strings.Count(src, "(*)") <= maxMulStages }

// planPool draws n distinct programs. Distinct means distinct under
// rules.Canonical, the daemon's own cache key.
func planPool(seed int64, n, maxStages int) []string {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	pool := make([]string, 0, n)
	for len(pool) < n {
		src := rules.Canonical(rules.RandProgram(rng, maxStages))
		if !seen[src] && inNumericContract(src) {
			seen[src] = true
			pool = append(pool, src)
		}
	}
	return pool
}

func setupPlan(miss bool) func(cfg config) (session, error) {
	return func(cfg config) (session, error) {
		s := &planSession{miss: miss, seed: cfg.seed, verified: map[int]checked{}}
		if miss {
			s.pool = planPool(cfg.seed, missWarm+int(cfg.seconds*missRateCap)+1, missMaxStages)
		} else {
			s.pool = planPool(cfg.seed, hitPool, hitMaxStages)
		}
		scfg := serve.DefaultConfig()
		s.mach = scfg.Machine
		s.own = serve.NewPlanner(scfg.CacheSize, scfg.CacheShards)
		s.srv = serve.New(scfg)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		s.url = "http://" + ln.Addr().String() + "/optimize"
		s.hs = &http.Server{Handler: s.srv.Handler()}
		s.served = make(chan error, 1)
		go func() { s.served <- s.hs.Serve(ln) }()
		for i := 0; i < planClients; i++ {
			s.clients = append(s.clients, &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}})
		}
		// Warm-up: plan-hit asks for its pool until connections, handler and
		// allocator have settled, so every timed request is a warm hit;
		// plan-miss fills the cache.
		warm := hitWarm
		if miss {
			warm = missWarm
		}
		ms := newMeasurement()
		s.drive(ms, func(int) bool { return int(s.next.Load()) < warm }, nil)
		if ms.failed > 0 {
			s.close()
			return nil, fmt.Errorf("warm-up: %s", ms.failures[0])
		}
		return s, nil
	}
}

func (s *planSession) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	s.srv.Drain()
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
	if serr := <-s.served; err == nil && serr != http.ErrServerClosed {
		err = serr
	}
	return err
}

// appendBody renders the request for a program: plan-hit asks for the
// greedy engine without selection, plan-miss for the plan search with
// algorithm selection.
func (s *planSession) appendBody(b []byte, src string) []byte {
	b = append(b, `{"program":`...)
	b = strconv.AppendQuote(b, src)
	b = append(b, `,"p":`...)
	b = strconv.AppendInt(b, int64(s.mach.P), 10)
	b = append(b, `,"m":`...)
	b = strconv.AppendInt(b, int64(s.mach.M), 10)
	if s.miss {
		b = append(b, `,"strategy":"search","select":true`...)
	}
	return append(b, '}')
}

// kept is a sampled request: what was asked, what came back and when.
type kept struct {
	index      int
	start, dur time.Duration
	body       []byte
}

// drive runs the closed loop until more reports false, appending one
// sample per request to ms. Every response is checked for status 200 and
// for answering the program that was asked; every sampleEvery-th is kept.
func (s *planSession) drive(ms *measurement, more func(client int) bool, keep *[]kept) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for c := range s.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var samples []sample
			var sampled []kept
			var bad []string
			failed := 0
			var body, want []byte
			var buf bytes.Buffer
			// The client calibrates between two of its requests; the loop is
			// too short for the runtime to preempt it. The clients share the
			// CPU, so each calibrates its share of the times.
			const gap = planClients * calibGap
			cal := newCalibrator()
			defer cal.close()
			var calib float64
			sinceCalib := gap
			for more(c) {
				if sinceCalib >= gap {
					calib, sinceCalib = cal.run(), 0
				}
				i := int(s.next.Add(1) - 1)
				if s.miss && i >= len(s.pool) {
					break
				}
				i %= len(s.pool)
				src := s.pool[i]
				body = s.appendBody(body[:0], src)
				t0 := time.Now()
				status, err := post(s.clients[c], s.url, body, &buf)
				dur := time.Since(t0)
				sinceCalib += dur
				samples = append(samples, sample{end: time.Since(start).Seconds(), dur: dur.Seconds(), calib: calib})
				want = strconv.AppendQuote(append(want[:0], `"canonical": `...), src)
				switch {
				case err != nil:
				case status != http.StatusOK:
					err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(buf.Bytes()))
				case !bytes.Contains(buf.Bytes(), want):
					err = fmt.Errorf("the response answers another program: %s", bytes.TrimSpace(buf.Bytes()))
				}
				if err != nil {
					failed++
					if len(bad) < maxFailures {
						bad = append(bad, fmt.Sprintf("%v; replay: %s", err, s.replay(src)))
					}
				} else if keep != nil && len(samples)%sampleEvery == 0 {
					sampled = append(sampled, kept{index: i, start: t0.Sub(start), dur: dur, body: append([]byte(nil), buf.Bytes()...)})
				}
			}
			mu.Lock()
			defer mu.Unlock()
			ms.samples = append(ms.samples, samples...)
			ms.failed += failed
			for _, b := range bad {
				if len(ms.failures) < maxFailures {
					ms.failures = append(ms.failures, b)
				}
			}
			if keep != nil {
				*keep = append(*keep, sampled...)
			}
		}(c)
	}
	wg.Wait()
	ms.clock = time.Since(start).Seconds()
}

func post(c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

func (s *planSession) replay(src string) string {
	flags := ""
	if s.miss {
		flags = " -search -select"
	}
	return fmt.Sprintf("go run ./cmd/collopt -p %d -m %d%s -prog %q", s.mach.P, s.mach.M, flags, src)
}

func (s *planSession) optimizeOptions() core.OptimizeOptions {
	return core.OptimizeOptions{Search: s.miss, Auto: s.miss}
}

// checked is a response that passed recheck, with the model costs it
// quotes for the spec and for the plan.
type checked struct {
	body          []byte
	before, after float64
}

// recheck is the independent check of one kept response: the optimized
// program it names must be the one the optimizer derives for the spec,
// that program must equal the spec under the functional semantics
// (rules.VerifyEquivalence, on inputs the daemon's own verifier does not
// draw), and the costs it quotes must be the model's. plan-hit's pool
// entries come back many times; after the first, the bytes must repeat.
func (s *planSession) recheck(k kept) (checked, error) {
	if prev, ok := s.verified[k.index]; ok {
		if !bytes.Equal(prev.body, k.body) {
			return checked{}, fmt.Errorf("the response changed between two hits")
		}
		return prev, nil
	}
	var resp serve.Response
	if err := json.Unmarshal(k.body, &resp); err != nil {
		return checked{}, fmt.Errorf("undecodable response: %v", err)
	}
	spec, err := s.own.ParseProgram(s.pool[k.index])
	if err != nil {
		return checked{}, err
	}
	opt, err := core.FromTerm(spec).OptimizeOpts(s.mach, s.optimizeOptions())
	if err != nil {
		return checked{}, err
	}
	plan := termSeq(opt.Program)
	if got := rules.Canonical(plan); got != resp.Optimized {
		return checked{}, fmt.Errorf("the response names plan %q, the optimizer derives %q", resp.Optimized, got)
	}
	score := cost.OfTerm
	if s.miss {
		score = cost.OfTermAuto
	}
	params := cost.Params{Ts: s.mach.Ts, Tw: s.mach.Tw, P: s.mach.P, M: s.mach.M}
	if b, a := score(spec, params), score(plan, params); b != resp.CostBefore || a != resp.CostAfter {
		return checked{}, fmt.Errorf("the response quotes costs %g -> %g, the model says %g -> %g", resp.CostBefore, resp.CostAfter, b, a)
	}
	vcfg := rules.VerifyConfig{Seed: s.seed + 1000, Trials: 2, Sizes: []int{1, 2, 4, 8}, BlockWords: 3, RelTol: 1e-9}
	if err := rules.VerifyEquivalence(spec, plan, vcfg); err != nil {
		return checked{}, fmt.Errorf("the plan is not equivalent to its spec: %v", err)
	}
	ok := checked{body: k.body, before: resp.CostBefore, after: resp.CostAfter}
	s.verified[k.index] = ok
	return ok, nil
}

func (s *planSession) measure(d time.Duration, tr *tracer) (*measurement, error) {
	ms := newMeasurement()
	before := s.srv.Metrics()
	start := time.Now()
	var keep []kept
	s.drive(ms, func(int) bool { return time.Since(start) < d }, &keep)
	after := s.srv.Metrics()

	var costBefore, costAfter float64
	for _, k := range keep {
		c, err := s.recheck(k)
		if err != nil {
			ms.fail([]string{fmt.Sprintf("%v; replay: %s", err, s.replay(s.pool[k.index]))})
			continue
		}
		costBefore += c.before
		costAfter += c.after
	}
	ops := float64(len(ms.samples))
	hits := float64(after.Cache.Hits + after.Cache.Coalesced - before.Cache.Hits - before.Cache.Coalesced)
	if lookups := hits + float64(after.Cache.Misses-before.Cache.Misses); lookups > 0 {
		ms.layer["serve.cache_hit_ratio"] = hits / lookups
	}
	ms.layer["serve.engine_runs_per_op"] = float64(after.EngineRuns-before.EngineRuns) / ops
	ms.layer["serve.evictions_per_op"] = float64(after.Cache.Evictions-before.Cache.Evictions) / ops
	ms.layer["serve.coalesced_per_op"] = float64(after.Cache.Coalesced-before.Cache.Coalesced) / ops
	if costBefore > 0 {
		ms.layer["rules.plan_cost_ratio"] = costAfter / costBefore
	}
	if tr != nil {
		for op, k := range keep {
			if err := s.reenact(tr, k, op); err != nil {
				return nil, fmt.Errorf("re-enacting %q: %v", s.pool[k.index], err)
			}
			ms.tracedS += k.dur.Seconds()
		}
	}
	return ms, nil
}

// step is one re-enacted stretch of a request, with the stretches timed
// inside it.
type step struct {
	name, layer string
	dur         time.Duration
	kids        []step
}

// timed runs f and appends how long it took to steps.
func timed(steps *[]step, name, layer string, f func() error) error {
	t0 := time.Now()
	err := f()
	*steps = append(*steps, step{name: name, layer: layer, dur: time.Since(t0)})
	return err
}

// lay records steps back to back from at, each scaled, and their kids
// inside them. Kids that together outlast their parent (they were timed
// on their own) are shrunk to fit.
func lay(tr *tracer, steps []step, at time.Duration, scale float64, parent, op int) {
	for _, st := range steps {
		dur := time.Duration(float64(st.dur) * scale)
		id := tr.add(st.name, st.layer, at, at+dur, parent, op)
		var inside time.Duration
		for _, k := range st.kids {
			inside += k.dur
		}
		kidScale := scale
		if inside > st.dur {
			kidScale *= float64(st.dur) / float64(inside)
		}
		lay(tr, st.kids, at, kidScale, id, op)
		at += dur
	}
}

// reenact books a kept request's latency to the layers it went through.
// The daemon cannot be traced from inside yet, so the request is run
// again in-process, step by step, after the timed loop has ended; the
// steps are laid out from the request's start and what remains of its
// socket-level latency is the self time of the serve.http root span. The
// steps run on an idle process, so contention between the two clients
// stays in serve.http. A miss is re-enacted on the benchmark's own
// planner, which has never seen the program.
func (s *planSession) reenact(tr *tracer, k kept, op int) error {
	strat := serve.StrategyGreedy
	if s.miss {
		strat = serve.StrategySearch
	}
	var steps []step
	var req serve.Request
	var t term.Seq
	var canonical, key string
	var plan serve.Plan
	body := s.appendBody(nil, s.pool[k.index])
	err := timed(&steps, "json.decode", "serve", func() error {
		return json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	})
	if err != nil {
		return err
	}
	err = timed(&steps, "lang.parse", "lang", func() (err error) {
		t, err = s.own.ParseProgram(req.Program)
		return err
	})
	if err != nil {
		return err
	}
	timed(&steps, "rules.canonical", "rules", func() error { canonical = rules.Canonical(t); return nil })
	timed(&steps, "serve.key", "serve", func() error { key = serve.KeyOpts(canonical, s.mach, strat, s.miss); return nil })
	if s.miss {
		err = timed(&steps, "serve.plan", "serve", func() (err error) {
			plan, _, err = s.own.PlanTermOpts(t, s.mach, strat, true)
			return err
		})
		if err != nil {
			return err
		}
		// The planner optimises and verifies in one call; the two are
		// timed again on their own to split its span.
		kids := &steps[len(steps)-1].kids
		var opt core.Optimization
		err = timed(kids, "core.optimize", "core", func() (err error) {
			opt, err = core.FromTerm(t).OptimizeOpts(s.mach, s.optimizeOptions())
			return err
		})
		if err != nil {
			return err
		}
		err = timed(kids, "rules.verify", "rules", func() error {
			for _, app := range opt.Applications {
				if err := rules.VerifyApplication(app, s.own.VerifyCfg); err != nil {
					return err
				}
			}
			return rules.VerifyEquivalence(t, opt.Program.Term(), s.own.VerifyCfg)
		})
	} else {
		err = timed(&steps, "serve.cache", "serve", func() (err error) {
			plan, _, err = s.srv.Planner().Cache.GetOrCompute(key, func() (serve.Plan, error) {
				return serve.Plan{}, fmt.Errorf("%q is not resident", key)
			})
			return err
		})
	}
	if err != nil {
		return err
	}
	err = timed(&steps, "json.encode", "serve", func() error {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		return enc.Encode(serve.Response{Plan: plan, Cached: !s.miss, Machine: s.mach})
	})
	if err != nil {
		return err
	}
	var total time.Duration
	for _, st := range steps {
		total += st.dur
	}
	scale := 1.0
	if total > k.dur {
		scale = float64(k.dur) / float64(total)
	}
	root := tr.add("serve.http", "serve", k.start, k.start+k.dur, -1, op)
	lay(tr, steps, k.start, scale, root, op)
	return nil
}
