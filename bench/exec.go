package main

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/rules"
)

// execSession is an exec workload on the native backend: the corpus, its
// references and one reused machine.
type execSession struct {
	p, m   int
	corpus []pair
	mach   *backend.Machine
}

// setupExec returns the set-up of a native exec workload: corpus and
// references, the machine, and a fixed warm-up that fills the machine's
// cached mailboxes and arenas.
func setupExec(p, m, warmup int) func(cfg config) (session, error) {
	return func(cfg config) (session, error) {
		corpus, err := buildCorpus(cfg.seed, p, m)
		if err != nil {
			return nil, err
		}
		s := &execSession{p: p, m: m, corpus: corpus, mach: backend.New(p)}
		for i := 0; i < warmup; i++ {
			if sw := s.sweep(nil, i); len(sw.bad) > 0 {
				return nil, fmt.Errorf("warm-up sweep %d: %s", i, sw.bad[0])
			}
		}
		return s, nil
	}
}

func (s *execSession) close() error { return nil }

// sweepResult is one operation of an exec workload: all 28 programs run
// once each.
type sweepResult struct {
	// wall is the summed wall time of the 28 RunOn calls, each including
	// Machine.Run's spawn, barrier and join; the output check between
	// two calls is off the clock.
	wall time.Duration
	// progNs[2*i+side] is the makespan of pair i's side: barrier release
	// to last rank, what Table 1 prices.
	progNs []float64
	// skew is Σ (makespan − mean rank time): waiting on the slowest rank.
	skew        time.Duration
	msgs, words int
	ops         float64
	bad         []string
}

func (s *execSession) sweep(tr *tracer, op int) sweepResult {
	r := sweepResult{progNs: make([]float64, 0, 2*len(s.corpus))}
	root := tr.begin("sweep", "bench", -1, op)
	for i := range s.corpus {
		c := &s.corpus[i]
		for side := 0; side < 2; side++ {
			id := tr.begin("core.RunOn", "core", root, op)
			t0 := time.Now()
			out, res, err := runGuarded(c, side, s.mach)
			r.wall += time.Since(t0)
			tr.end(id)
			stageSpans(tr, id, op, res)

			check := tr.begin("check", "bench", root, op)
			if err == nil && !algebra.EqualListsModuloUndef(out, c.ref[side]) {
				err = fmt.Errorf("output differs from term.Eval")
			}
			tr.end(check)
			if err != nil {
				r.bad = append(r.bad, fmt.Sprintf("%s %s: %v; replay: %s", c.rule, sideNames[side], err, s.replay(c, side)))
			}
			r.progNs = append(r.progNs, float64(res.Makespan.Nanoseconds()))
			var sum time.Duration
			for _, t := range res.Ranks {
				sum += t
			}
			if len(res.Ranks) > 0 {
				r.skew += res.Makespan - sum/time.Duration(len(res.Ranks))
			}
			r.msgs += res.Messages
			r.words += res.Words
			r.ops += res.Ops
		}
	}
	tr.end(root)
	return r
}

// runGuarded runs one program, turning the backend's panic on a failed or
// deadlocked rank into an error, so one failure is one failed operation.
func runGuarded(c *pair, side int, mach *backend.Machine) (out []algebra.Value, res backend.Result, err error) {
	defer func() {
		if e := recover(); e != nil {
			err = fmt.Errorf("run panicked: %v", e)
		}
	}()
	out, res = c.program(side).RunOn(mach, c.in)
	return out, res, nil
}

// stageSpans lays one child span per stage under a RunOn span, from the
// public stage marks of the rank that finished last. The marks count from
// the barrier release, which RunOn does not report; the release is placed
// so that the last rank finishes where RunOn returned, which books spawn
// and barrier before the stages and leaves the join inside RunOn's self
// time only as far as it exceeds the timer's resolution.
func stageSpans(tr *tracer, parent, op int, res backend.Result) {
	if tr == nil {
		return
	}
	crit := 0
	for r, t := range res.Ranks {
		if t > res.Ranks[crit] {
			crit = r
		}
	}
	if crit >= len(res.Marks) {
		return
	}
	release := tr.spans[parent].end - res.Makespan
	if release < tr.spans[parent].start {
		release = tr.spans[parent].start
	}
	marks := res.Marks[crit]
	for i, mk := range marks {
		end := res.Makespan
		if i+1 < len(marks) {
			end = marks[i+1].At
		}
		layer := "coll"
		if strings.HasPrefix(mk.Label, "map") {
			layer = "algebra"
		}
		tr.add(mk.Label, layer, release+mk.At, release+end, parent, op)
	}
}

// replay is the command that re-runs a failed execution outside the
// benchmark. Left-hand sides are in the surface syntax; most right-hand
// sides are not, so they point at collchaos's rule sweep.
func (s *execSession) replay(c *pair, side int) string {
	if side == 0 {
		return fmt.Sprintf("go run ./cmd/collchaos -prog %q -p %d -m %d", rules.Canonical(termSeq(c.lhs)), s.p, s.m)
	}
	return fmt.Sprintf("go run ./cmd/collchaos -rules -p %d -m %d  # %s rhs: %s", s.p, s.m, c.rule, c.rhs)
}

func (s *execSession) measure(d time.Duration, tr *tracer) (*measurement, error) {
	ms := newMeasurement()
	var table sweepTable
	var busy, skew time.Duration
	var msgs, words int
	var makespanNs float64
	// The calibration loop runs between two sweeps, off the clock, about
	// once per calibGap of sweeping.
	cal := newCalibrator()
	defer cal.close()
	var calib float64
	sinceCalib := calibGap
	start := time.Now()
	for op := 0; time.Since(start) < d; op++ {
		if sinceCalib >= calibGap {
			id := tr.begin("calibrate", "bench", -1, op)
			calib, sinceCalib = cal.run(), 0
			tr.end(id)
		}
		sw := s.sweep(tr, op)
		busy += sw.wall
		sinceCalib += sw.wall
		ms.samples = append(ms.samples, sample{end: busy.Seconds(), dur: sw.wall.Seconds(), calib: calib})
		ms.fail(sw.bad)
		table.add(sw.progNs)
		for _, ns := range sw.progNs {
			makespanNs += ns
		}
		skew += sw.skew
		msgs += sw.msgs
		words += sw.words
		ms.computeOps += sw.ops
	}
	n := float64(len(ms.samples))
	ms.clock = busy.Seconds()
	ms.layer["backend.msgs_per_sweep"] = float64(msgs) / n
	ms.layer["backend.words_per_sweep"] = float64(words) / n
	ms.layer["backend.rank_skew_us"] = float64(skew.Nanoseconds()) / 1e3 / n
	ms.layer["core.harness_share"] = 1 - makespanNs/1e9/busy.Seconds()
	table.report(ms, s.corpus, nativeFit, s.p, s.m)
	return ms, nil
}
