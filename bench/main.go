// Command bench is the repository's benchmark: five closed-loop workloads
// over the executors and the planning daemon, each checked against an
// independent reference, with end-to-end metrics from an untraced run and
// per-layer metrics from a traced run plus layer probes. BENCHMARK.json at
// the repository root names the command, the workloads and the metrics;
// README.md in this directory says why each exists.
//
//	bash bench/run.sh --workload exec-latency --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                  # every workload, untraced then traced
//	bash bench/run.sh -repeat 10       # A/A: spreads of ten runs against the bounds
//	bash bench/run.sh -smoke           # every workload for a fraction of a second
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"

	"repro/internal/mpbackend"
)

// config is one run of one workload.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// window is a share of the time the run measures for.
func (c config) window(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// measurement is what one measured stretch of a workload yields.
type measurement struct {
	samples []sample
	// clock is the length of the measured clock in seconds: wall time for
	// the plan workloads, time inside the executor for the exec workloads
	// (the output check between two executions is off the clock).
	clock float64
	// failed counts the operations (samples) that failed.
	failed int
	// failures holds the first maxFailures failed operations, each with a
	// line that replays it.
	failures []string
	// layer holds the per-layer numbers the workload itself yields, by
	// metric name.
	layer map[string]float64
	// computeOps is the charged operator work (backend.Result.Ops).
	computeOps float64
	// workerMallocs are allocations in rank processes, which the bench
	// process's own counters do not see.
	workerMallocs float64
	// pairs is the per-rule table of the exec workloads.
	pairs []pairRow
	// tracedS is the time the spans of a traced measurement account for,
	// when that is not the wall time of the measurement.
	tracedS float64
}

const maxFailures = 10

func newMeasurement() *measurement { return &measurement{layer: map[string]float64{}} }

// fail counts one failed operation if it has any complaint.
func (ms *measurement) fail(bad []string) {
	if len(bad) == 0 {
		return
	}
	ms.failed++
	for _, b := range bad {
		if len(ms.failures) < maxFailures {
			ms.failures = append(ms.failures, b)
		}
	}
}

// session is a workload that has been set up.
type session interface {
	// measure runs operations back to back for d of wall time. With a
	// tracer it records spans around its calls.
	measure(d time.Duration, tr *tracer) (*measurement, error)
	close() error
}

type workload struct {
	name  string
	setup func(cfg config) (session, error)
}

// workloads is the closed list BENCHMARK.json declares. Geometry is part
// of the workload's definition, not a setting: see README.md.
var workloads = []workload{
	{"exec-latency", setupExec(8, 16, 300)},
	{"exec-bandwidth", setupExec(8, 4096, 40)},
	{"exec-multiproc", setupMultiproc},
	{"plan-hit", setupPlan(false)},
	{"plan-miss", setupPlan(true)},
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// processStart is taken first thing in main: set-up time counts from here.
var processStart time.Time

func main() {
	processStart = time.Now()
	// The multi-process backend re-executes this binary once per rank.
	mpbackend.MaybeWorker()

	var cfg config
	trace := flag.Int("trace", 0, "1: traced run, prints the per-layer metrics; 0: untraced, prints the end-to-end metrics")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs every workload, untraced and traced, in child processes")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of every input generator")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "how long one run measures")
	repeat := flag.Int("repeat", 0, "A/A mode: run every workload this many times, each with another seed, and compare the spreads with BENCHMARK.json's bounds")
	smoke := flag.Bool("smoke", false, "every workload, untraced and traced, measuring for 0.3 s each")
	flag.Parse()
	cfg.trace = *trace != 0
	if flag.NArg() > 0 {
		fatal(2, "unexpected arguments %v", flag.Args())
	}
	if cfg.seconds <= 0 {
		fatal(2, "-seconds must be positive, got %g", cfg.seconds)
	}
	if raceBuild() {
		fatal(2, "refusing to measure a -race build")
	}
	if *smoke {
		cfg.seconds = 0.3
	}
	pinToOneCPU()
	if cfg.workload == "" {
		os.Exit(runAll(cfg, *repeat))
	}
	res, err := runOne(cfg)
	if err != nil {
		fatal(1, "%s: %v", cfg.workload, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(line))
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func raceBuild() bool {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range info.Settings {
		if s.Key == "-race" && s.Value == "true" {
			return true
		}
	}
	return false
}

// procCounters are the process-wide counters read around a measurement.
type procCounters struct {
	mallocs, bytes, gcPauseNs uint64
	cpuS                      float64 // user+system, this process and its reaped children
	maxRSSMB                  float64
}

func readProc() procCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	c := procCounters{mallocs: m.Mallocs, bytes: m.TotalAlloc, gcPauseNs: m.PauseTotalNs}
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err != nil {
			continue
		}
		c.cpuS += time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
		if rss := float64(ru.Maxrss) / 1024; rss > c.maxRSSMB {
			c.maxRSSMB = rss // Linux reports KiB
		}
	}
	return c
}

// setupRounds is how many times a run sets the workload up; setup_s is the
// median, and the last set-up is the one measured. Each round's time is
// scaled by calibrations taken right after it (before it the process may
// have just started, and the loop would run cold).
const setupRounds = 3

// setupCalibs is how many calibrations scale one set-up: single ones differ
// by a sixth, their median over this many by a few percent.
const setupCalibs = 41

// tracedShare is the share of --seconds a traced run spends on each of its
// two short measurements (untraced, then traced); the rest goes to the
// layer probes.
const tracedShare = 0.15

func runOne(cfg config) (*result, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("no such workload (have %v)", workloadNames())
	}
	if err := keepScratchInside(); err != nil {
		return nil, err
	}

	var sess session
	var setups, rawSetups []float64
	cal := newCalibrator()
	defer cal.close()
	t0 := processStart
	for i := 0; i < setupRounds; i++ {
		s, err := w.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		took := time.Since(t0).Seconds()
		// Back-to-back calibrations all fall inside or outside one cycle of
		// the collector, whose workers share the CPU; after a collection
		// they all run outside.
		runtime.GC()
		setups = append(setups, took*clockScale(median(cal.runN(setupCalibs))))
		rawSetups = append(rawSetups, took)
		if sess != nil {
			if err := sess.close(); err != nil {
				return nil, fmt.Errorf("tearing down set-up %d: %w", i, err)
			}
		}
		sess = s
		t0 = time.Now()
	}
	defer sess.close()

	file := &resultFile{Workload: cfg.workload, Env: environment(cfg), SetupS: setups, SetupRawS: rawSetups}
	file.Result = &result{Metrics: map[string]metric{}}
	var err error
	if cfg.trace {
		err = tracedRun(cfg, sess, file)
	} else {
		err = untracedRun(cfg, sess, file)
	}
	if err != nil {
		return nil, err
	}
	res := file.Result
	res.Correct = res.Failed == 0

	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-16s %-36s %16.6g %s\n", cfg.workload, name, m.Value, m.Unit)
	}
	for _, f := range file.Failures {
		fmt.Printf("FAILED %s\n", f)
	}
	path := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d.json", cfg.workload, cfg.seed, b2i(cfg.trace)))
	if err := file.write(path); err != nil {
		return nil, err
	}
	return res, nil
}

// untracedRun measures for the whole window with tracing off and reports
// the end-to-end metrics.
func untracedRun(cfg config, sess session, file *resultFile) error {
	before := readProc()
	ms, err := sess.measure(cfg.window(1), nil)
	if err != nil {
		return err
	}
	after := readProc()
	tm := summarize(ms.samples, ms.clock)
	ops := float64(len(ms.samples))
	values := map[string]float64{
		"setup_s":       median(file.SetupS),
		"ops_per_s":     tm.opsPerS.Value,
		"op_p50_us":     tm.p50us.Value,
		"allocs_per_op": (float64(after.mallocs-before.mallocs) + ms.workerMallocs) / ops,
	}
	for _, m := range endToEndMetrics {
		file.Result.Metrics[m.name] = metric{Value: values[m.name], Unit: m.unit}
	}
	file.Spread = map[string]stat{"ops_per_s": tm.opsPerS, "op_p50_us": tm.p50us, "op_p95_us": tm.p95us}
	file.RawP50Us, file.CalibUs = tm.rawP50us, tm.calibUs
	file.note(ms)
	return nil
}

// tracedRun measures the workload twice for a short stretch, untraced and
// then with spans, spends the rest of the window on the layer probes, and
// reports the per-layer metrics.
func tracedRun(cfg config, sess session, file *resultFile) error {
	plain, err := sess.measure(cfg.window(tracedShare), nil)
	if err != nil {
		return err
	}
	tr := newTracer()
	before := readProc()
	t0 := time.Now()
	traced, err := sess.measure(cfg.window(tracedShare), tr)
	if err != nil {
		return err
	}
	wall := time.Since(t0).Seconds()
	after := readProc()
	file.note(plain)
	file.note(traced)

	rows, rootS := tr.selfTimes()
	tracedS := traced.tracedS
	if tracedS == 0 {
		tracedS = wall
	}
	file.SelfTimes = rows
	file.SelfTimeTable = formatSelfTimes(rows, rootS, tracedS)
	fmt.Print(file.SelfTimeTable)
	file.Trace = filepath.Join(outDir, fmt.Sprintf("%s-seed%d.trace.json", cfg.workload, cfg.seed))
	if err := tr.writeChrome(file.Trace); err != nil {
		return err
	}

	layer := map[string]float64{}
	for _, m := range perLayerMetrics {
		layer[m.name] = 0
	}
	for k, v := range traced.layer {
		layer[k] = v
	}
	ops := float64(len(traced.samples))
	tmPlain, tmTraced := summarize(plain.samples, plain.clock), summarize(traced.samples, traced.clock)
	cpuS := after.cpuS - before.cpuS
	layer["process.cpu_s"] = cpuS
	layer["process.cpu_us_per_op"] = cpuS * 1e6 / ops
	layer["process.peak_rss_mb"] = after.maxRSSMB
	layer["process.bytes_per_op"] = float64(after.bytes-before.bytes) / ops
	layer["process.gc_pause_ms"] = float64(after.gcPauseNs-before.gcPauseNs) / 1e6
	layer["process.op_p50_raw_us"] = tmTraced.rawP50us
	layer["process.calib_us"] = tmTraced.calibUs
	layer["process.op_p95_us"] = tmTraced.p95us.Value
	layer["process.op_p99_us"] = tmTraced.p99us
	layer["process.trace_overhead_pct"] = 100 * (tmPlain.opsPerS.Value - tmTraced.opsPerS.Value) / tmPlain.opsPerS.Value
	for _, l := range traceLayers {
		layer["trace.self_share_"+l] = layerShare(rows, l)
	}

	if err := runProbes(cfg.seed, cfg.window(1-2*tracedShare), layer); err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	// Numbers that need both the traced workload and a probe.
	layer["algebra.kernel_cpu_share"] = traced.computeOps * layer["algebra.add_ns_per_word"] / 1e9 / cpuS
	// The ranks send in parallel, so a rank's share of the words is what
	// the wire holds a sweep up for.
	if words := traced.layer["mpbackend.words_per_sweep"] * ops / mpRanks; words > 0 {
		layer["mpbackend.wire_share"] = words * layer["mpbackend.wire_ns_per_word"] / 1e9 / traced.clock
	}
	// What a request costs beyond the handler run in-process: the socket,
	// net/http and two clients sharing the CPU. The in-process cost is the
	// hit's and the miss's, mixed as the daemon's counters say; both sides
	// are wall-clock times, as the probes are.
	if hit, ok := traced.layer["serve.cache_hit_ratio"]; ok {
		inProcessUs := hit*layer["serve.plan_hit_ns"]/1e3 + (1-hit)*layer["serve.plan_miss_us"]
		layer["serve.http_overhead_us"] = tmTraced.rawP50us - inProcessUs
	}
	if len(layer) != len(perLayerMetrics) {
		return fmt.Errorf("the run produced per-layer numbers the metric list does not declare: %v", undeclared(layer))
	}
	for _, m := range perLayerMetrics {
		file.Result.Metrics[m.name] = metric{Value: layer[m.name], Unit: m.unit}
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func undeclared(layer map[string]float64) []string {
	declared := map[string]bool{}
	for _, m := range perLayerMetrics {
		declared[m.name] = true
	}
	var extra []string
	for k := range layer {
		if !declared[k] {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)
	return extra
}
