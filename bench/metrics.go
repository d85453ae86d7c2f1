package main

// metricDecl declares one metric: BENCHMARK.json lists the same names,
// units and directions, and a test holds the two lists equal.
type metricDecl struct {
	name, unit, better string
}

// endToEndMetrics are what a user of the system sees; every workload
// reports every one, from the untraced run.
var endToEndMetrics = []metricDecl{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"op_p50_us", "us", "lower"},
	{"allocs_per_op", "count", "lower"},
}

// collProbes are the collectives timed one stage at a time, at m = 16
// (_ns_s) and m = 4096 (_ns_l) on the native backend with p = 8.
var collProbes = []string{
	"bcast", "reduce", "allreduce", "scan", "reduce_balanced", "scan_balanced",
	"comcast", "iter", "halo", "allgatherv", "reduce_scatterv",
}

// portfolio are the non-butterfly algorithms of coll/algo.go, timed at
// m = 4096 natively (_ns_l) and at m = 1024 across 4 processes (_ns_mp).
var portfolio = []string{"allreduce_rabenseifner", "allreduce_ring", "allreduce_ringbi", "reduce_pipelined"}

// perLayerMetrics are the numbers of single layers, from the traced run
// and the layer probes. A number a workload never touches its layer for
// reads 0 there (a plan workload sends no messages; an exec workload has
// no cache). README.md says which end-to-end metric each should move.
var perLayerMetrics = func() []metricDecl {
	ms := []metricDecl{
		{"algebra.add_ns_per_word", "ns", "lower"},
		{"algebra.mul_ns_per_word", "ns", "lower"},
		{"algebra.op_sr2_ns_per_word", "ns", "lower"},
		{"algebra.op_ss_ns_per_word", "ns", "lower"},
		{"algebra.repeat_ns_per_word", "ns", "lower"},
		{"algebra.small_apply_ns", "ns", "lower"},
		{"algebra.allocs_per_apply", "count", "lower"},
		{"algebra.kernel_cpu_share", "ratio", "higher"},

		{"backend.run_overhead_ns", "ns", "lower"},
		{"backend.pingpong_ns_s", "ns", "lower"},
		{"backend.pingpong_ns_l", "ns", "lower"},
		{"backend.pingpong_copy_ns_l", "ns", "lower"},
		{"backend.exchange_ns_s", "ns", "lower"},
		{"backend.allocs_per_run", "count", "lower"},
		{"backend.msgs_per_sweep", "count", "lower"},
		{"backend.words_per_sweep", "count", "lower"},
		{"backend.rank_skew_us", "us", "lower"},

		{"mpbackend.spawn_ms", "ms", "lower"},
		{"mpbackend.pingpong_ns_16", "ns", "lower"},
		{"mpbackend.pingpong_ns_1024", "ns", "lower"},
		{"mpbackend.wire_ns_per_word", "ns", "lower"},
		{"mpbackend.barrier_ns", "ns", "lower"},
		{"mpbackend.wire_share", "ratio", "lower"},
		{"mpbackend.msgs_per_sweep", "count", "lower"},
		{"mpbackend.words_per_sweep", "count", "lower"},
	}
	for _, c := range collProbes {
		ms = append(ms, metricDecl{"coll." + c + "_ns_s", "ns", "lower"}, metricDecl{"coll." + c + "_ns_l", "ns", "lower"})
	}
	for _, a := range portfolio {
		ms = append(ms, metricDecl{"coll." + a + "_ns_l", "ns", "lower"})
	}
	for _, a := range append(portfolio, "allreduce_butterfly", "reduce_butterfly") {
		ms = append(ms, metricDecl{"coll." + a + "_ns_mp", "ns", "lower"})
	}
	return append(ms, []metricDecl{
		{"sel.choose_ns", "ns", "lower"},
		{"sel.nonbutterfly_share", "ratio", "higher"},

		{"core.dispatch_ns", "ns", "lower"},
		{"core.optimize_us", "us", "lower"},
		{"core.harness_share", "ratio", "lower"},

		{"lang.parse_us", "us", "lower"},
		{"lang.parse_mb_per_s", "MB/s", "higher"},
		{"term.eval_us", "us", "lower"},

		{"rules.canonical_us", "us", "lower"},
		{"rules.greedy_us", "us", "lower"},
		{"rules.search_us", "us", "lower"},
		{"rules.verify_us", "us", "lower"},
		{"rules.search_nodes", "count", "lower"},
		{"rules.search_pruned", "count", "higher"},
		{"rules.search_exhausted_share", "ratio", "higher"},
		{"rules.applications_per_plan", "count", "higher"},
		{"rules.search_gain_share", "ratio", "higher"},
		{"rules.fused_speedup", "ratio", "higher"},
		{"rules.plan_cost_ratio", "ratio", "lower"},

		{"cost.ofterm_ns", "ns", "lower"},
		{"cost.ofterm_auto_ns", "ns", "lower"},
		{"cost.floor_ns", "ns", "lower"},
		{"cost.pred_over_meas_p50", "ratio", "higher"},
		{"cost.decision_agreement", "ratio", "higher"},

		{"serve.json_decode_ns", "ns", "lower"},
		{"serve.json_encode_ns", "ns", "lower"},
		{"serve.key_ns", "ns", "lower"},
		{"serve.cache_hit_ns", "ns", "lower"},
		{"serve.cache_insert_ns", "ns", "lower"},
		{"serve.plan_hit_ns", "ns", "lower"},
		{"serve.plan_miss_us", "us", "lower"},
		{"serve.http_overhead_us", "us", "lower"},
		{"serve.cache_hit_ratio", "ratio", "higher"},
		{"serve.engine_runs_per_op", "count", "lower"},
		{"serve.evictions_per_op", "count", "lower"},
		{"serve.coalesced_per_op", "count", "lower"},

		{"exec.lhs_sweep_us", "us", "lower"},
		{"exec.rhs_sweep_us", "us", "lower"},

		{"process.cpu_s", "s", "lower"},
		{"process.cpu_us_per_op", "us", "lower"},
		{"process.peak_rss_mb", "MB", "lower"},
		{"process.bytes_per_op", "B", "lower"},
		{"process.gc_pause_ms", "ms", "lower"},
		{"process.op_p50_raw_us", "us", "lower"},
		{"process.calib_us", "us", "lower"},
		{"process.op_p95_us", "us", "lower"},
		{"process.op_p99_us", "us", "lower"},
		{"process.trace_overhead_pct", "%", "lower"},
	}...)
}()

// traceLayers are the layers a span can belong to; the traced run reports
// each one's share of the traced time as trace.self_share_<layer>.
var traceLayers = []string{"bench", "core", "coll", "algebra", "mpbackend", "serve", "lang", "rules"}

func init() {
	for _, l := range traceLayers {
		perLayerMetrics = append(perLayerMetrics, metricDecl{"trace.self_share_" + l, "ratio", "lower"})
	}
}
