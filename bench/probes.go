package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"time"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
	"repro/internal/coll/sel"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/mpbackend"
	"repro/internal/rules"
	"repro/internal/serve"
	"repro/internal/term"
)

// The layer probes time calls into each layer's public functions, from
// outside, on inputs made from the run's seed. They do not depend on the
// workload: every traced run repeats them, so a per-layer number can be
// read next to any workload's trace.

const (
	probeP = 8
	smallM = 16
	largeM = 4096
	// timedProbes is roughly how many probes share the budget.
	timedProbes = 72
	probeReps   = 3
)

type prober struct {
	// per is one probe's share of the budget.
	per   time.Duration
	layer map[string]float64
}

// nsPerOp times f, which performs n operations and reports how long they
// took: n grows until one call fills a quarter of the probe's share, then
// the median of probeReps calls is taken.
func (pr *prober) nsPerOp(f func(n int) time.Duration) float64 {
	slice := pr.per / (probeReps + 1)
	n := 1
	for {
		d := f(n)
		if d >= slice || n >= 1<<22 {
			break
		}
		grow := 2.0
		if d > 0 {
			grow = 1.2 * float64(slice) / float64(d)
		}
		if grow < 2 {
			grow = 2
		}
		if grow > 64 {
			grow = 64
		}
		n = int(float64(n) * grow)
	}
	per := make([]float64, probeReps)
	for i := range per {
		per[i] = float64(f(n).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// loop adapts a plain operation to nsPerOp.
func loop(op func()) func(n int) time.Duration {
	return each(1, func(int) { op() })
}

// each adapts an operation over a pool to nsPerOp: call i gets item
// i mod size.
func each(size int, op func(i int)) func(n int) time.Duration {
	return func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			op(i % size)
		}
		return time.Since(t0)
	}
}

// onRanks runs n iterations of the operation prep returns on every rank
// of mach and reports Σ over runs of the slowest rank's loop. A run holds
// at most chunk iterations, because a rank's arena only resets between
// runs.
func onRanks(mach *backend.Machine, chunk, n int, prep func(p *backend.Proc) func()) time.Duration {
	var total time.Duration
	elapsed := make([]time.Duration, mach.P)
	for n > 0 {
		k := n
		if k > chunk {
			k = chunk
		}
		mach.Run(func(p *backend.Proc) {
			op := prep(p)
			t0 := time.Now()
			for i := 0; i < k; i++ {
				op()
			}
			elapsed[p.Rank()] = time.Since(t0)
		})
		slowest := time.Duration(0)
		for _, e := range elapsed {
			if e > slowest {
				slowest = e
			}
		}
		total += slowest
		n -= k
	}
	return total
}

// collKind names the probe a stage belongs to, "" if none.
func collKind(st term.Term) string {
	switch s := st.(type) {
	case term.Bcast:
		return "bcast"
	case term.Scan:
		return "scan"
	case term.ScanBal:
		return "scan_balanced"
	case term.Reduce:
		switch {
		case s.Balanced:
			return "reduce_balanced"
		case s.All:
			return "allreduce"
		}
		return "reduce"
	case term.Comcast:
		return "comcast"
	case term.Iter:
		return "iter"
	case term.Halo:
		return "halo"
	case term.AllGatherV:
		return "allgatherv"
	case term.ReduceScatterV:
		return "reduce_scatterv"
	}
	return ""
}

// findStage returns the first corpus stage of the kind, the stages that
// feed it and the program's inputs.
func findStage(corpus []pair, kind string) (prefix term.Seq, stage term.Term, in []algebra.Value, err error) {
	for i := range corpus {
		for side := 0; side < 2; side++ {
			stages := term.Stages(corpus[i].program(side).Term())
			for j, st := range stages {
				if collKind(st) == kind {
					return term.Seq(stages[:j]), st, corpus[i].in, nil
				}
			}
		}
	}
	return nil, nil, nil, fmt.Errorf("no %s stage in the corpus", kind)
}

// runProbes fills layer with every probe's number, spending about budget.
func runProbes(seed int64, budget time.Duration, layer map[string]float64) error {
	pr := &prober{per: budget / timedProbes, layer: layer}
	pr.algebra(seed)
	if err := pr.native(seed); err != nil {
		return err
	}
	if err := pr.planner(seed); err != nil {
		return err
	}
	return pr.multiproc()
}

func (pr *prober) algebra(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	vec := func(m int) algebra.Vec {
		v := make(algebra.Vec, m)
		for i := range v {
			v[i] = float64(rng.Intn(9) + 1)
		}
		return v
	}
	flat := func(w int) *algebra.FlatTuple {
		t := algebra.NewFlatTuple(w, largeM)
		copy(t.Data, vec(w*largeM))
		return t
	}
	// Operands are boxed once, as the collectives hold them: converting a
	// Vec to a Value at every call would allocate in the probe, not in
	// the kernel.
	var a, b, dst algebra.Value = vec(largeM), vec(largeM), make(algebra.Vec, largeM)
	perWord := func(name string, op func()) {
		pr.layer[name] = pr.nsPerOp(loop(op)) / largeM
	}
	perWord("algebra.add_ns_per_word", func() { algebra.Add.ApplyInto(dst, a, b) })
	perWord("algebra.mul_ns_per_word", func() { algebra.Mul.ApplyInto(dst, a, b) })
	sr2, p1, p2, pd := algebra.OpSR2(algebra.Mul, algebra.Add), flat(2), flat(2), flat(2)
	perWord("algebra.op_sr2_ns_per_word", func() { sr2.FlatFn(pd, p1, p2) })
	ss, own, from, qd := algebra.OpSS(algebra.Add), flat(4), flat(3), flat(4)
	perWord("algebra.op_ss_ns_per_word", func() { ss.FlatHi(qd, own, from) })
	rep, rv, rd := algebra.OpCompBSS(algebra.Add), flat(4), flat(4)
	perWord("algebra.repeat_ns_per_word", func() { rep.FlatO(rd, rv) })

	var sa, sb, sd algebra.Value = vec(smallM), vec(smallM), make(algebra.Vec, smallM)
	pr.layer["algebra.small_apply_ns"] = pr.nsPerOp(loop(func() { algebra.Add.ApplyInto(sd, sa, sb) }))

	const applies = 1000
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < applies; i++ {
		algebra.Add.ApplyInto(dst, a, b)
		sr2.ApplyInto(pd, p1, p2)
	}
	runtime.ReadMemStats(&m1)
	pr.layer["algebra.allocs_per_apply"] = float64(m1.Mallocs-m0.Mallocs) / (2 * applies)
}

func (pr *prober) native(seed int64) error {
	// Transport: two ranks, one block going back and forth.
	pair := backend.New(2)
	pingpong := func(mach *backend.Machine, m int) func(n int) time.Duration {
		v := algebra.Value(mpbackend.SeededInputs(seed, 1, m)[0])
		return func(n int) time.Duration {
			return mach.Run(func(p *backend.Proc) {
				for i := 0; i < n; i++ {
					t1, t2 := p.NextTag(), p.NextTag()
					if p.Rank() == 0 {
						p.Send(1, v, t1)
						p.Recv(1, t2)
					} else {
						p.Send(0, p.Recv(0, t1), t2)
					}
				}
			}).Makespan
		}
	}
	pr.layer["backend.pingpong_ns_s"] = pr.nsPerOp(pingpong(pair, smallM))
	pr.layer["backend.pingpong_ns_l"] = pr.nsPerOp(pingpong(pair, largeM))
	copying := backend.New(2)
	copying.Transport = backend.TransportCopy
	pr.layer["backend.pingpong_copy_ns_l"] = pr.nsPerOp(pingpong(copying, largeM))
	sv := algebra.Value(mpbackend.SeededInputs(seed, 1, smallM)[0])
	pr.layer["backend.exchange_ns_s"] = pr.nsPerOp(func(n int) time.Duration {
		return pair.Run(func(p *backend.Proc) {
			for i := 0; i < n; i++ {
				p.Exchange(1-p.Rank(), sv, p.NextTag())
			}
		}).Makespan
	})

	mach := backend.New(probeP)
	empty := func(*backend.Proc) {}
	pr.layer["backend.run_overhead_ns"] = pr.nsPerOp(loop(func() { mach.Run(empty) }))
	const runs = 200
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		mach.Run(empty)
	}
	runtime.ReadMemStats(&m1)
	pr.layer["backend.allocs_per_run"] = float64(m1.Mallocs-m0.Mallocs) / runs

	inc := core.NewProgram().Map(rules.IncFn).Map(rules.IncFn).Map(rules.IncFn).Map(rules.IncFn)
	in := mpbackend.SeededInputs(seed, probeP, smallM)
	pr.layer["core.dispatch_ns"] = pr.nsPerOp(loop(func() { inc.RunOn(mach, in) })) - pr.layer["backend.run_overhead_ns"]

	// Collectives: one stage, looped inside the run, on the value the
	// corpus feeds it.
	for _, size := range []struct {
		suffix   string
		m, chunk int
	}{{"_ns_s", smallM, 256}, {"_ns_l", largeM, 16}} {
		corpus, err := buildCorpus(seed, probeP, size.m)
		if err != nil {
			return err
		}
		for _, kind := range collProbes {
			prefix, stage, in, err := findStage(corpus, kind)
			if err != nil {
				return err
			}
			pr.layer["coll."+kind+size.suffix] = pr.nsPerOp(func(n int) time.Duration {
				return onRanks(mach, size.chunk, n, func(p *backend.Proc) func() {
					v := core.RunStages(p, prefix, in[p.Rank()])
					return func() { core.RunStages(p, stage, v) }
				})
			})
		}
	}
	dense := mpbackend.SeededInputs(seed, probeP, largeM)
	segments := cost.PipelineSegments(cost.Params{Ts: nativeFit.ts, Tw: nativeFit.tw, P: probeP, M: largeM})
	for name, run := range map[string]func(p *backend.Proc, v algebra.Value){
		"allreduce_rabenseifner": func(p *backend.Proc, v algebra.Value) { coll.AllReduceRabenseifner(p, algebra.Add, v) },
		"allreduce_ring":         func(p *backend.Proc, v algebra.Value) { coll.AllReduceRing(p, algebra.Add, v) },
		"allreduce_ringbi":       func(p *backend.Proc, v algebra.Value) { coll.AllReduceRingBi(p, algebra.Add, v) },
		"reduce_pipelined":       func(p *backend.Proc, v algebra.Value) { coll.ReducePipelined(p, algebra.Add, v, segments) },
	} {
		pr.layer["coll."+name+"_ns_l"] = pr.nsPerOp(func(n int) time.Duration {
			return onRanks(mach, 16, n, func(p *backend.Proc) func() {
				v := dense[p.Rank()]
				return func() { run(p, v) }
			})
		})
	}
	return nil
}

// planner probes the layers a plan request goes through, on the programs
// of the plan workloads: plan-hit's pool for the read path, a slice of
// plan-miss's for the engine.
func (pr *prober) planner(seed int64) error {
	scfg := serve.DefaultConfig()
	mach := scfg.Machine
	params := cost.Params{Ts: mach.Ts, Tw: mach.Tw, P: mach.P, M: mach.M}
	pl := serve.NewPlanner(scfg.CacheSize, scfg.CacheShards)
	parse := func(pool []string) ([]term.Seq, error) {
		terms := make([]term.Seq, len(pool))
		for i, src := range pool {
			t, err := pl.ParseProgram(src)
			if err != nil {
				return nil, err
			}
			terms[i] = t
		}
		return terms, nil
	}
	hitSrc := planPool(seed, hitPool, hitMaxStages)
	hit, err := parse(hitSrc)
	if err != nil {
		return err
	}
	const missSlice = 256
	missSrc := planPool(seed, missSlice, missMaxStages)
	miss, err := parse(missSrc)
	if err != nil {
		return err
	}

	bytesPerParse := 0
	for _, src := range hitSrc {
		bytesPerParse += len(src)
	}
	parseNs := pr.nsPerOp(each(len(hitSrc), func(i int) { pl.ParseProgram(hitSrc[i]) }))
	pr.layer["lang.parse_us"] = parseNs / 1e3
	pr.layer["lang.parse_mb_per_s"] = float64(bytesPerParse) / float64(len(hitSrc)) / parseNs * 1e3
	evalIn := make([]algebra.Value, 8)
	for i := range evalIn {
		evalIn[i] = algebra.Scalar(float64(i%13 - 6))
	}
	pr.layer["term.eval_us"] = pr.nsPerOp(each(len(miss), func(i int) { term.Eval(miss[i], evalIn) })) / 1e3

	pr.layer["rules.canonical_us"] = pr.nsPerOp(each(len(hit), func(i int) { rules.Canonical(hit[i]) })) / 1e3
	eng := rules.NewCostGuidedEngine(params)
	pr.layer["rules.greedy_us"] = pr.nsPerOp(each(len(miss), func(i int) { eng.Optimize(miss[i]) })) / 1e3
	pr.layer["rules.search_us"] = pr.nsPerOp(each(len(miss), func(i int) { eng.SearchOptimize(miss[i], rules.SearchConfig{}) })) / 1e3
	auto := rules.NewCostGuidedEngine(params)
	auto.Auto = true
	plans := make([]term.Term, len(miss))
	var nodes, pruned, exhausted, apps, gained, selections, nonButterfly float64
	for i, t := range miss {
		plan, app, stats := auto.SearchOptimize(t, rules.SearchConfig{})
		plans[i] = plan
		nodes += float64(stats.Nodes)
		pruned += float64(stats.Pruned)
		apps += float64(len(app))
		if stats.Exhausted {
			exhausted++
		}
		if stats.Improved() {
			gained++
		}
		for _, s := range sel.ForTerm(plan, params) {
			selections++
			if s.Algo != cost.AlgoButterfly {
				nonButterfly++
			}
		}
	}
	n := float64(len(miss))
	pr.layer["rules.search_nodes"] = nodes / n
	pr.layer["rules.search_pruned"] = pruned / n
	pr.layer["rules.search_exhausted_share"] = exhausted / n
	pr.layer["rules.applications_per_plan"] = apps / n
	pr.layer["rules.search_gain_share"] = gained / n
	if selections > 0 {
		pr.layer["sel.nonbutterfly_share"] = nonButterfly / selections
	}
	pr.layer["rules.verify_us"] = pr.nsPerOp(each(len(miss), func(i int) { rules.VerifyEquivalence(miss[i], plans[i], pl.VerifyCfg) })) / 1e3
	pr.layer["sel.choose_ns"] = pr.nsPerOp(loop(func() {
		sel.Choose(cost.CollAllReduce, cost.Params{Ts: mach.Ts, Tw: mach.Tw, P: probeP, M: largeM})
	}))

	pr.layer["cost.ofterm_ns"] = pr.nsPerOp(each(len(miss), func(i int) { cost.OfTerm(miss[i], params) }))
	pr.layer["cost.ofterm_auto_ns"] = pr.nsPerOp(each(len(miss), func(i int) { cost.OfTermAuto(miss[i], params) }))
	pr.layer["cost.floor_ns"] = pr.nsPerOp(each(len(miss), func(i int) { cost.Floor(miss[i], params) }))

	corpus, err := buildCorpus(seed, probeP, smallM)
	if err != nil {
		return err
	}
	cm := core.Machine{Ts: modelTs, Tw: modelTw, P: probeP, M: smallM}
	pr.layer["core.optimize_us"] = pr.nsPerOp(each(len(corpus), func(i int) { corpus[i].lhs.Optimize(cm) })) / 1e3

	// The serving layer, in-process.
	hits := &planSession{mach: mach}
	bodies := make([][]byte, len(hitSrc))
	keys := make([]string, len(hitSrc))
	for i, src := range hitSrc {
		bodies[i] = hits.appendBody(nil, src)
		keys[i] = serve.KeyOpts(src, mach, serve.StrategyGreedy, false)
		if _, _, err := pl.PlanTermOpts(hit[i], mach, serve.StrategyGreedy, false); err != nil {
			return err
		}
	}
	pr.layer["serve.json_decode_ns"] = pr.nsPerOp(each(len(bodies), func(i int) {
		var req serve.Request
		json.NewDecoder(bytes.NewReader(bodies[i])).Decode(&req)
	}))
	plan, _, err := pl.PlanTermOpts(hit[0], mach, serve.StrategyGreedy, false)
	if err != nil {
		return err
	}
	resp := serve.Response{Plan: plan, Cached: true, Machine: mach}
	pr.layer["serve.json_encode_ns"] = pr.nsPerOp(loop(func() {
		enc := json.NewEncoder(io.Discard)
		enc.SetIndent("", "  ")
		enc.Encode(resp)
	}))
	pr.layer["serve.key_ns"] = pr.nsPerOp(each(len(hitSrc), func(i int) { serve.KeyOpts(hitSrc[i], mach, serve.StrategyGreedy, false) }))
	resident := func() (serve.Plan, error) { return serve.Plan{}, fmt.Errorf("not resident") }
	pr.layer["serve.cache_hit_ns"] = pr.nsPerOp(each(len(keys), func(i int) { pl.Cache.GetOrCompute(keys[i], resident) }))

	// A fresh key into a full cache: one insert and one eviction.
	full := serve.NewCache(scfg.CacheSize, scfg.CacheShards)
	fresh := 0
	insert := func() (serve.Plan, error) { return plan, nil }
	var key []byte
	nextKey := func() string {
		fresh++
		key = strconv.AppendInt(append(key[:0], "fresh|"...), int64(fresh), 10)
		return string(key)
	}
	for i := 0; i < 2*scfg.CacheSize; i++ {
		full.GetOrCompute(nextKey(), insert)
	}
	pr.layer["serve.cache_insert_ns"] = pr.nsPerOp(loop(func() { full.GetOrCompute(nextKey(), insert) }))

	// The whole handler without the socket: decode, plan, encode.
	srv := serve.New(scfg)
	handler := srv.Handler()
	call := func(body []byte) error {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/optimize", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process handler: HTTP %d: %s", rec.Code, rec.Body)
		}
		return nil
	}
	for _, b := range bodies {
		if err := call(b); err != nil {
			return err
		}
	}
	pr.layer["serve.plan_hit_ns"] = pr.nsPerOp(each(len(bodies), func(i int) { call(bodies[i]) }))
	// Every call must miss, so each timed batch gets a planner that has
	// seen nothing, and no more calls than there are programs.
	pr.layer["serve.plan_miss_us"] = pr.nsPerOp(func(n int) time.Duration {
		fresh := serve.NewPlanner(scfg.CacheSize, scfg.CacheShards)
		k := min(n, len(miss))
		t0 := time.Now()
		for i := 0; i < k; i++ {
			fresh.PlanTermOpts(miss[i], mach, serve.StrategySearch, true)
		}
		return time.Duration(float64(time.Since(t0)) * float64(n) / float64(k))
	}) / 1e3
	return nil
}

// barrierBodyName is a body of the benchmark's own: n barriers, timed
// inside the rank. With n = 0 the job is spawn, mesh and teardown only.
const barrierBodyName = "bench-barrier"

func init() { mpbackend.Register(barrierBodyName, barrierBody) }

func barrierBody(p *mpbackend.Proc, raw json.RawMessage) (any, error) {
	var n int
	if err := json.Unmarshal(raw, &n); err != nil {
		return nil, err
	}
	p.Barrier()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		p.Barrier()
	}
	return time.Since(t0).Nanoseconds(), nil
}

// multiproc probes the process-per-rank backend with its built-in bodies,
// reduced the way calib and exper reduce them (mpbackend.MinMakespan:
// slowest rank per repetition, fastest repetition). A job costs a spawn, so
// these probes run a fixed amount of work each instead of filling a share
// of the budget.
func (pr *prober) multiproc() error {
	opts := mpbackend.Options{Timeout: 60 * time.Second}
	var spawns []float64
	for i := 0; i < probeReps; i++ {
		t0 := time.Now()
		if _, err := mpbackend.Run(barrierBodyName, mpRanks, 0, opts); err != nil {
			return err
		}
		spawns = append(spawns, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	pr.layer["mpbackend.spawn_ms"] = median(spawns)

	const barriers = 2000
	res, err := mpbackend.Run(barrierBodyName, mpRanks, barriers, opts)
	if err != nil {
		return err
	}
	ns, err := mpbackend.Decode[int64](res)
	if err != nil {
		return err
	}
	slowest := int64(0)
	for _, t := range ns {
		slowest = max(slowest, t)
	}
	pr.layer["mpbackend.barrier_ns"] = float64(slowest) / barriers

	const rounds, reps = 200, 5
	for _, m := range []int{16, 1024} {
		res, err := mpbackend.Run("probe", 2, mpbackend.ProbeParams{Probe: "pingpong", M: m, Rounds: rounds, Reps: reps}, opts)
		if err != nil {
			return err
		}
		t, err := mpbackend.MinMakespan(res)
		if err != nil {
			return err
		}
		pr.layer[fmt.Sprintf("mpbackend.pingpong_ns_%d", m)] = t / rounds
	}
	// A round trip moves the block twice.
	pr.layer["mpbackend.wire_ns_per_word"] = (pr.layer["mpbackend.pingpong_ns_1024"] - pr.layer["mpbackend.pingpong_ns_16"]) / (2 * (1024 - 16))

	segments := cost.PipelineSegments(cost.Params{Ts: multiprocFit.ts, Tw: multiprocFit.tw, P: mpRanks, M: mpWords})
	for _, c := range []struct {
		name, collective string
		algo             cost.Algo
	}{
		{"allreduce_butterfly", cost.CollAllReduce, cost.AlgoButterfly},
		{"allreduce_rabenseifner", cost.CollAllReduce, cost.AlgoRabenseifner},
		{"allreduce_ring", cost.CollAllReduce, cost.AlgoRing},
		{"allreduce_ringbi", cost.CollAllReduce, cost.AlgoRingBi},
		{"reduce_butterfly", cost.CollReduce, cost.AlgoButterfly},
		{"reduce_pipelined", cost.CollReduce, cost.AlgoPipeline},
	} {
		res, err := mpbackend.Run("collective", mpRanks, mpbackend.CollectiveParams{
			Collective: c.collective, Algo: string(c.algo), Op: "add", M: mpWords, Segments: segments, Reps: 100, Seed: 11,
		}, opts)
		if err != nil {
			return err
		}
		if pr.layer["coll."+c.name+"_ns_mp"], err = mpbackend.MinMakespan(res); err != nil {
			return err
		}
	}
	return nil
}
