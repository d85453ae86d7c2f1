package main

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/mpbackend"
)

// The multi-process workload runs the same corpus with every rank an OS
// process. The backend's built-in "program" body parses surface syntax,
// which most right-hand sides are not written in (op_sr2, reduce_balanced,
// iter, map#), so the benchmark registers a body of its own that rebuilds
// the corpus from (m, seed) inside each rank.

const (
	mpRanks = 4
	mpWords = 1024
	// ruleBodyName is the registered name; the worker processes are this
	// same binary, so registering in init covers both sides.
	ruleBodyName = "bench-rule"
)

func init() { mpbackend.Register(ruleBodyName, ruleBody) }

// ruleParams is the job description: rebuild the corpus from (M, Seed),
// run one warm-up sweep and Sweeps timed ones.
type ruleParams struct {
	M      int   `json:"m"`
	Seed   int64 `json:"seed"`
	Sweeps int   `json:"sweeps"`
}

// ruleResult is what one rank returns.
type ruleResult struct {
	// RepNs[(s*28)+2i+side] is this rank's time from the barrier release
	// to its own finish for pair i's side in sweep s; sweep 0 is the
	// warm-up.
	RepNs []int64 `json:"rep_ns"`
	// Bad counts executions whose output on this rank differed from the
	// rank's slice of the term.Eval reference, per sweep.
	Bad      []int  `json:"bad"`
	FirstBad string `json:"first_bad,omitempty"`
	// RefDigest proves the rank compared against the same references the
	// coordinator holds.
	RefDigest uint64 `json:"ref_digest"`
	// Mallocs counts the rank's allocations during the timed sweeps.
	Mallocs uint64 `json:"mallocs"`
	// CalibNs[s] is what the calibration loop took on rank 0 before sweep
	// s, while the other ranks waited at the barrier; other ranks leave it
	// empty.
	CalibNs []int64 `json:"calib_ns,omitempty"`
}

func ruleBody(p *mpbackend.Proc, raw json.RawMessage) (any, error) {
	var ps ruleParams
	if err := json.Unmarshal(raw, &ps); err != nil {
		return nil, err
	}
	corpus, err := buildCorpus(ps.Seed, p.Size(), ps.M)
	if err != nil {
		return nil, err
	}
	rank := p.Rank()
	res := ruleResult{RefDigest: refDigest(corpus), Bad: make([]int, ps.Sweeps+1)}
	var m0, m1 runtime.MemStats
	cal := newCalibrator()
	defer cal.close()
	for sweep := 0; sweep <= ps.Sweeps; sweep++ {
		if sweep == 1 {
			runtime.ReadMemStats(&m0)
		}
		if rank == 0 {
			res.CalibNs = append(res.CalibNs, int64(cal.run()*1e9))
		}
		for i := range corpus {
			c := &corpus[i]
			for side := 0; side < 2; side++ {
				p.ScratchArena().Reset()
				p.Barrier()
				t0 := time.Now()
				out := core.RunStages(p, c.program(side).Term(), c.in[rank])
				res.RepNs = append(res.RepNs, time.Since(t0).Nanoseconds())
				if !algebra.EqualModuloUndef(out, c.ref[side][rank]) {
					res.Bad[sweep]++
					if res.FirstBad == "" {
						res.FirstBad = fmt.Sprintf("%s %s: rank %d differs from term.Eval", c.rule, sideNames[side], rank)
					}
				}
			}
		}
	}
	runtime.ReadMemStats(&m1)
	res.Mallocs = m1.Mallocs - m0.Mallocs
	return res, nil
}

// hashValue feeds a value's shape and bits to h.
func hashValue(h hash.Hash64, v algebra.Value) {
	var buf [8]byte
	word := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	switch x := algebra.Boxed(v).(type) {
	case algebra.Scalar:
		h.Write([]byte{'s'})
		word(float64(x))
	case algebra.Vec:
		h.Write([]byte{'v'})
		for _, f := range x {
			word(f)
		}
	case algebra.Tuple:
		h.Write([]byte{'('})
		for _, c := range x {
			hashValue(h, c)
		}
		h.Write([]byte{')'})
	default:
		fmt.Fprint(h, x)
	}
}

// refDigest is a checksum of a corpus: programs, inputs and references.
func refDigest(corpus []pair) uint64 {
	h := fnv.New64a()
	for i := range corpus {
		c := &corpus[i]
		fmt.Fprintf(h, "%s|%s|%s|", c.rule, c.lhs, c.rhs)
		for _, list := range [][]algebra.Value{c.in, c.ref[0], c.ref[1]} {
			for _, v := range list {
				hashValue(h, v)
			}
		}
	}
	return h.Sum64()
}

type mpSession struct {
	seed   int64
	corpus []pair
	digest uint64
	// sweepS is the sweep time the set-up job saw; it sizes the jobs.
	sweepS float64
}

// mpJob is one process group's work, folded over ranks.
type mpJob struct {
	wall time.Duration
	// sweeps[s][k] is the makespan (max over ranks) of program k in timed
	// sweep s, in nanoseconds.
	sweeps   [][]int64
	bad      []int
	firstBad string
	// calibS[s] is the calibration before timed sweep s, in seconds.
	calibS      []float64
	msgs, words int
	ops         float64
	mallocs     uint64
}

func (s *mpSession) run(sweeps int) (*mpJob, error) {
	t0 := time.Now()
	res, err := mpbackend.Run(ruleBodyName, mpRanks, ruleParams{M: mpWords, Seed: s.seed, Sweeps: sweeps}, mpbackend.Options{Timeout: 90 * time.Second})
	if err != nil {
		return nil, err
	}
	job := &mpJob{wall: time.Since(t0), bad: make([]int, sweeps)}
	ranks, err := mpbackend.Decode[ruleResult](res)
	if err != nil {
		return nil, err
	}
	progs := 2 * len(s.corpus)
	job.sweeps = make([][]int64, sweeps)
	for i := range job.sweeps {
		job.sweeps[i] = make([]int64, progs)
	}
	for r, rr := range ranks {
		if rr.RefDigest != s.digest {
			return nil, fmt.Errorf("rank %d rebuilt a different corpus (digest %x, coordinator %x)", r, rr.RefDigest, s.digest)
		}
		if len(rr.RepNs) != (sweeps+1)*progs || len(rr.Bad) != sweeps+1 {
			return nil, fmt.Errorf("rank %d reported %d timings, want %d", r, len(rr.RepNs), (sweeps+1)*progs)
		}
		if r == 0 {
			if len(rr.CalibNs) != sweeps+1 {
				return nil, fmt.Errorf("rank 0 reported %d calibrations, want %d", len(rr.CalibNs), sweeps+1)
			}
			for _, ns := range rr.CalibNs[1:] {
				job.calibS = append(job.calibS, float64(ns)/1e9)
			}
		}
		for sw := 0; sw < sweeps; sw++ {
			for k := 0; k < progs; k++ {
				if ns := rr.RepNs[(sw+1)*progs+k]; ns > job.sweeps[sw][k] {
					job.sweeps[sw][k] = ns
				}
			}
			job.bad[sw] += rr.Bad[sw+1]
		}
		if rr.Bad[0] > 0 && job.firstBad == "" {
			return nil, fmt.Errorf("warm-up sweep: %s", rr.FirstBad)
		}
		if job.firstBad == "" {
			job.firstBad = rr.FirstBad
		}
		job.msgs += res[r].Msgs
		job.words += res[r].Words
		job.ops += res[r].Ops
		job.mallocs += rr.Mallocs
	}
	return job, nil
}

func setupMultiproc(cfg config) (session, error) {
	corpus, err := buildCorpus(cfg.seed, mpRanks, mpWords)
	if err != nil {
		return nil, err
	}
	s := &mpSession{seed: cfg.seed, corpus: corpus, digest: refDigest(corpus)}
	// The first spawn: pages in the binary for the rank processes and
	// tells how long a sweep takes here.
	const probeSweeps = 4
	job, err := s.run(probeSweeps)
	if err != nil {
		return nil, err
	}
	var ns int64
	for _, sw := range job.sweeps {
		for _, t := range sw {
			ns += t
		}
	}
	s.sweepS = float64(ns) / 1e9 / probeSweeps
	return s, nil
}

func (s *mpSession) close() error { return nil }

func (s *mpSession) measure(d time.Duration, tr *tracer) (*measurement, error) {
	ms := newMeasurement()
	// A job is sized to about a second of sweeps, so the spawn is paid a
	// few times per run and the deadline is overshot by at most one job.
	perJob := max(2, int(math.Min(d.Seconds(), 1)/s.sweepS))
	var table sweepTable
	var busy, walls time.Duration
	var msgs, words, sweepsRun int
	start := time.Now()
	for op := 0; time.Since(start) < d; {
		root := tr.begin("mpbackend.Run", "mpbackend", -1, op)
		job, err := s.run(perJob)
		if err != nil {
			return nil, err
		}
		tr.end(root)
		walls += job.wall
		var inJob int64
		for _, sw := range job.sweeps {
			for _, t := range sw {
				inJob += t
			}
		}
		// The ranks time each program from its barrier release; for the
		// trace the sweeps are laid out back to back so that the last ends
		// where Run returned. Spawn, mesh, barriers and teardown are then
		// Run's self time.
		var at time.Duration
		if tr != nil {
			at = tr.spans[root].end - time.Duration(inJob)
		}
		for i, sw := range job.sweeps {
			var dur int64
			progNs := make([]float64, len(sw))
			for k, t := range sw {
				dur += t
				progNs[k] = float64(t)
			}
			table.add(progNs)
			if tr != nil {
				id := tr.add("sweep", "bench", at, at+time.Duration(dur), root, op)
				for k, t := range sw {
					tr.add("core.RunStages("+s.corpus[k/2].rule+"/"+sideNames[k%2]+")", "core", at, at+time.Duration(t), id, op)
					at += time.Duration(t)
				}
			}
			busy += time.Duration(dur)
			ms.samples = append(ms.samples, sample{end: busy.Seconds(), dur: float64(dur) / 1e9, calib: job.calibS[i]})
			if job.bad[i] > 0 {
				ms.fail([]string{fmt.Sprintf("%s; replay: bash bench/run.sh --workload exec-multiproc --seed %d --seconds 1", job.firstBad, s.seed)})
			}
			op++
		}
		msgs += job.msgs
		words += job.words
		sweepsRun += perJob + 1
		ms.computeOps += job.ops
		ms.workerMallocs += float64(job.mallocs)
	}
	ms.clock = busy.Seconds()
	ms.layer["mpbackend.msgs_per_sweep"] = float64(msgs) / float64(sweepsRun)
	ms.layer["mpbackend.words_per_sweep"] = float64(words) / float64(sweepsRun)
	ms.layer["core.harness_share"] = 1 - busy.Seconds()/walls.Seconds()
	table.report(ms, s.corpus, multiprocFit, mpRanks, mpWords)
	return ms, nil
}
