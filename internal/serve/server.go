// Package serve turns the rule engine into a long-running optimization
// service: an HTTP/JSON front-end over the cost-guided engine and a
// concurrent sharded plan cache (canonicalized program + machine
// parameters → verified optimized plan, single-flight per key, LRU
// bounded). cmd/collserve is the daemon around it.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/rules"
)

// Config sizes a Server.
type Config struct {
	// Machine is the default machine (requests may override P and M,
	// and Ts/Tw explicitly).
	Machine core.Machine
	// CacheSize and CacheShards shape the plan cache.
	CacheSize, CacheShards int
}

// DefaultConfig is the daemon's default geometry: a 4096-plan cache over
// 64 shards. Every plan is verified once, when computed, then served from
// the cache.
func DefaultConfig() Config {
	return Config{
		Machine:     core.Machine{Ts: 1000, Tw: 1, P: 64, M: 64},
		CacheSize:   4096,
		CacheShards: 64,
	}
}

// maxRequestBytes bounds the body of POST /optimize: the daemon reads no
// more of a request than this, and answers 413 to one that is longer.
const maxRequestBytes = 1 << 20

// maxPooledBody is the largest body buffer that goes back to the pool: a
// buffer grown for one body near the 1 MiB bound is dropped, not kept
// behind every later 100-byte request.
const maxPooledBody = 64 << 10

// bodyPool holds the buffers request bodies are read into.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Request is the body of POST /optimize.
type Request struct {
	// Program is the pipeline in the surface syntax, e.g.
	// "bcast ; scan(+) ; reduce(+)".
	Program string `json:"program"`
	// Ts and Tw override the server's machine parameters when non-nil.
	Ts *float64 `json:"ts,omitempty"`
	Tw *float64 `json:"tw,omitempty"`
	// P and M override the processor count and block size when non-zero;
	// a negative one is refused.
	P int `json:"p,omitempty"`
	M int `json:"m,omitempty"`
	// Strategy selects the optimizer: "greedy" (the default) or "search"
	// for the global plan search.
	Strategy string `json:"strategy,omitempty"`
	// Select enables collective-algorithm auto-selection: the plan is
	// scored with the calibrated portfolio model and records which
	// algorithm each eligible reduction should run (Plan.Selection).
	// Selected plans are cached under select-qualified keys.
	Select bool `json:"select,omitempty"`
}

// Response is the body of a successful POST /optimize.
type Response struct {
	Plan
	// Cached reports that the plan came from the cache (including
	// waiting on a computation already in flight).
	Cached bool `json:"cached"`
	// Machine echoes the parameters the plan was computed at.
	Machine core.Machine `json:"machine"`
}

// Snapshot is the /metrics document.
type Snapshot struct {
	UptimeSeconds float64 `json:"uptime_s"`
	Requests      uint64  `json:"requests"`
	Optimized     uint64  `json:"optimized"`
	Errors        uint64  `json:"errors"`
	InFlight      int64   `json:"in_flight"`
	EngineRuns    int64   `json:"engine_runs"`
	// Verify counts the work of verifying computed plans.
	Verify rules.VerifyStats `json:"verify"`
	Cache  CacheStats        `json:"cache"`
}

// Server is the optimizer service: handlers over a planner.
type Server struct {
	cfg     Config
	planner *Planner
	mux     *http.ServeMux

	start     time.Time
	requests  atomic.Uint64
	optimized atomic.Uint64
	errors    atomic.Uint64
	inFlight  atomic.Int64
}

// New assembles a server from the config (zero fields fall back to
// DefaultConfig values).
func New(cfg Config) *Server {
	def := DefaultConfig()
	if cfg.Machine.P == 0 {
		cfg.Machine = def.Machine
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = def.CacheSize
	}
	if cfg.CacheShards <= 0 {
		cfg.CacheShards = def.CacheShards
	}
	s := &Server{
		cfg:     cfg,
		planner: NewPlanner(cfg.CacheSize, cfg.CacheShards),
		mux:     http.NewServeMux(),
		start:   time.Now(),
	}
	s.mux.HandleFunc("/optimize", s.handleOptimize)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	return s
}

// Planner exposes the planner: tests read its counters, and the benchmark
// plans through it without going over HTTP.
func (s *Server) Planner() *Planner { return s.planner }

// Handler is the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		s.inFlight.Add(1)
		defer s.inFlight.Add(-1)
		s.mux.ServeHTTP(w, r)
	})
}

// Drain does nothing: no request outlives its handler. It stays because
// bench/plan.go calls it; the facade of ROADMAP item 1(c) can delete it.
func (s *Server) Drain() {}

// Metrics snapshots every counter.
func (s *Server) Metrics() Snapshot {
	return Snapshot{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Requests:      s.requests.Load(),
		Optimized:     s.optimized.Load(),
		Errors:        s.errors.Load(),
		InFlight:      s.inFlight.Load(),
		EngineRuns:    s.planner.EngineRuns(),
		Verify:        s.planner.VerifyStats(),
		Cache:         s.planner.Cache.Stats(),
	}
}

// machineFor resolves a request's machine parameters over the defaults.
func (s *Server) machineFor(req Request) (core.Machine, error) {
	m := s.cfg.Machine
	if req.Ts != nil {
		m.Ts = *req.Ts
	}
	if req.Tw != nil {
		m.Tw = *req.Tw
	}
	if req.P != 0 {
		m.P = req.P
	}
	if req.M != 0 {
		m.M = req.M
	}
	if m.P < 1 {
		return m, fmt.Errorf("p must be positive, got %d", m.P)
	}
	if m.M < 1 {
		return m, fmt.Errorf("m must be positive, got %d", m.M)
	}
	if m.Ts < 0 || m.Tw < 0 {
		return m, fmt.Errorf("ts and tw must be non-negative, got ts=%g tw=%g", m.Ts, m.Tw)
	}
	// −0 passes the check above but prints as -0, in the cache key and in
	// the answer: it is the machine +0 is, so it becomes +0.
	if m.Ts == 0 {
		m.Ts = 0
	}
	if m.Tw == 0 {
		m.Tw = 0
	}
	return m, nil
}

func (s *Server) handleOptimize(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// net/http ends a body at its declared length, so a declared length is
	// checked and only an undeclared (chunked) body is counted while read.
	tooLarge := func() {
		s.fail(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxRequestBytes)
	}
	if r.ContentLength > maxRequestBytes {
		tooLarge()
		return
	}
	src := r.Body
	if r.ContentLength < 0 {
		src = http.MaxBytesReader(w, src, maxRequestBytes)
	}
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	if _, err := buf.ReadFrom(src); err != nil {
		if errors.As(err, new(*http.MaxBytesError)) {
			tooLarge()
		} else {
			s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		}
		return
	}
	body := buf.Bytes()
	// A body answered from the cache before leads straight to its entry.
	if plan, ok := s.planner.Cache.byBody(body); ok {
		s.optimized.Add(1)
		plan.render().write(w)
		return
	}

	var req Request
	end, err := decodeRequest(body, &req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if rest := bytes.TrimLeft(body[end:], " \t\r\n"); len(rest) > 0 {
		s.fail(w, http.StatusBadRequest, "bad request body: %q after the JSON value", rest[0])
		return
	}
	mach, err := s.machineFor(req)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad machine parameters: %v", err)
		return
	}
	strat, err := ParseStrategy(req.Strategy)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad strategy: %v", err)
		return
	}
	// req.Program may be a view of the pooled body, which is the handler's
	// until it returns; the stage list keeps none of it.
	t, err := s.planner.ParseProgram(req.Program)
	if err != nil {
		long, wide := (*lang.StagesError)(nil), (*WidthError)(nil)
		if errors.As(err, &long) || errors.As(err, &wide) {
			s.fail(w, http.StatusBadRequest, "%v", err)
			return
		}
		s.fail(w, http.StatusBadRequest, "parse error: %v", err)
		return
	}

	plan, cached, err := s.planner.PlanTermOpts(t, mach, strat, req.Select)
	if err != nil {
		s.failPlan(w, err)
		return
	}
	s.optimized.Add(1)
	if cached {
		// A hit: the plan's one rendering, and the next request with these
		// bytes finds the entry without being decoded.
		plan.render().write(w)
		s.planner.Cache.remember(body, plan.hit.key)
		return
	}
	jw := getWriter()
	jw.response(&Response{Plan: plan, Cached: cached, Machine: mach})
	jw.send(w, http.StatusOK)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	jw := getWriter()
	jw.health(s.inFlight.Load(), time.Since(s.start).Seconds())
	jw.send(w, http.StatusOK)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.Metrics()
	jw := getWriter()
	jw.snapshot(&snap)
	jw.send(w, http.StatusOK)
}

// failPlan answers for a plan that could not be produced: a program the
// semantics is undefined on, or machine parameters its estimate overflows
// at, is the client's error, anything else ours.
func (s *Server) failPlan(w http.ResponseWriter, err error) {
	var ill *rules.IllTypedError
	if errors.As(err, &ill) {
		s.fail(w, http.StatusBadRequest, "%v", ill)
		return
	}
	var inf *EstimateOverflowError
	if errors.As(err, &inf) {
		s.fail(w, http.StatusBadRequest, "%v", inf)
		return
	}
	s.fail(w, http.StatusInternalServerError, "optimization failed: %v", err)
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...any) {
	s.errors.Add(1)
	jw := getWriter()
	jw.errorBody(fmt.Sprintf(format, args...))
	jw.send(w, code)
}

var jsonContentType = []string{"application/json"}

// write answers 200 with the rendered hit.
func (h *cacheEntry) write(w http.ResponseWriter) {
	hdr := w.Header()
	hdr["Content-Type"] = jsonContentType
	hdr["Content-Length"] = h.length
	w.WriteHeader(http.StatusOK)
	w.Write(h.body)
}
