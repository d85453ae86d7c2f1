// Command collserve is the optimizer-as-a-service daemon: a long-running
// HTTP/JSON server that accepts collective pipelines in the surface
// syntax, runs the cost-guided rewrite engine over them, and returns the
// optimized program, predicted cost and derivation summary. Plans are
// memoized in a sharded single-flight LRU cache keyed on the canonical
// program + machine parameters (see docs/SERVING.md).
//
//	collserve -addr 127.0.0.1:8080 [-params-file CALIB_native.json]
//
// Endpoints: POST /optimize, GET /healthz, GET /metrics. On SIGINT or
// SIGTERM the daemon drains gracefully: the listener stops accepting,
// in-flight requests finish, final statistics are printed, and a
// watchdog-style goroutine check verifies nothing leaked before exit
// (exit 0 on a clean drain, 1 on a leak).
//
// Flags:
//
//	-addr HOST:PORT     listen address (port 0 picks a free port)
//	-ts, -tw, -p, -m    default machine parameters for requests
//	-params-file FILE   calibrated ts/tw from collbench -calibrate
//	-cache-size N       plan-cache capacity (entries)
//	-cache-shards N     plan-cache shards (rounded up to a power of two)
//	-drain-timeout N    seconds to wait for in-flight requests on shutdown
//
// The daemon only serves. Drive a live one with curl; what a request
// costs is measured by bash bench/run.sh --workload plan-hit|plan-miss.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/serve"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the CLI and returns the process exit code; factored out of
// main so the command is testable.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("collserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:8080", "listen address (port 0 picks a free port)")
		ts         = fs.Float64("ts", 1000, "default message start-up time")
		tw         = fs.Float64("tw", 1, "default per-word transfer time")
		p          = fs.Int("p", 64, "default number of processors")
		m          = fs.Int("m", 64, "default block size in words")
		paramsFile = fs.String("params-file", "", "load calibrated ts/tw from a collbench -calibrate report")
		cacheSize  = fs.Int("cache-size", 4096, "plan-cache capacity in entries")
		shards     = fs.Int("cache-shards", 64, "plan-cache shard count (rounded up to a power of two)")
		drainSecs  = fs.Float64("drain-timeout", 10, "seconds to wait for in-flight requests on shutdown")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "collserve: unexpected arguments %v\n", fs.Args())
		return 2
	}

	// Install the signal handler before taking the goroutine baseline:
	// the signal package's delivery loop goroutine is permanent by
	// design and must not count as a leak.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	baseline := runtime.NumGoroutine()

	calibrated := ""
	if *paramsFile != "" {
		rep, err := calib.ReadReport(*paramsFile)
		if err != nil {
			fmt.Fprintf(stderr, "collserve: %v\n", err)
			return 1
		}
		*ts, *tw = rep.Fit.Ts, rep.Fit.Tw
		calibrated = fmt.Sprintf(" (calibrated from %s)", *paramsFile)
	}
	s := serve.New(serve.Config{
		Machine:     core.Machine{Ts: *ts, Tw: *tw, P: *p, M: *m},
		CacheSize:   *cacheSize,
		CacheShards: *shards,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "collserve: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "collserve: listening on http://%s%s\n", ln.Addr(), calibrated)
	fmt.Fprintf(stdout, "collserve: machine ts=%g tw=%g p=%d m=%d, cache %d entries\n",
		*ts, *tw, *p, *m, *cacheSize)

	srv := &http.Server{Handler: s.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		fmt.Fprintf(stderr, "collserve: serve: %v\n", err)
		return 1
	}
	stop()

	// Graceful drain: stop accepting, let in-flight requests finish, then
	// account for every goroutine.
	fmt.Fprintln(stdout, "collserve: signal received, draining")
	shutCtx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainSecs*float64(time.Second)))
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(stderr, "collserve: shutdown: %v\n", err)
		return 1
	}
	<-serveErr // Serve has returned http.ErrServerClosed

	snap := s.Metrics()
	fmt.Fprintf(stdout, "collserve: served %d requests (%d optimized, %d errors), engine runs %d\n",
		snap.Requests, snap.Optimized, snap.Errors, snap.EngineRuns)
	fmt.Fprintf(stdout, "collserve: cache %d/%d entries, %d hits, %d misses, %d coalesced, %d evictions (hit rate %.1f%%)\n",
		snap.Cache.Size, snap.Cache.Capacity, snap.Cache.Hits, snap.Cache.Misses,
		snap.Cache.Coalesced, snap.Cache.Evictions, 100*snap.Cache.HitRate())

	// Watchdog-style goroutine accounting, as the backend leak tests do:
	// settle, then compare against the pre-listen baseline.
	leaked := -1
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		if n := runtime.NumGoroutine(); n <= baseline {
			leaked = 0
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if leaked != 0 {
		n := runtime.NumGoroutine()
		fmt.Fprintf(stderr, "collserve: LEAK: %d goroutines after drain (baseline %d)\n", n, baseline)
		return 1
	}
	fmt.Fprintf(stdout, "collserve: drained cleanly (%d goroutines, baseline %d)\n", runtime.NumGoroutine(), baseline)
	return 0
}
