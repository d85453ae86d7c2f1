// Conformance and protocol tests for the multi-process backend. Every
// test here spawns real OS processes: the test binary re-executes itself
// (TestMain calls MaybeWorker), so results compared against the
// in-process backends crossed a genuine serialization boundary.
package mpbackend_test

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/chaos"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/lang"
	"repro/internal/mpbackend"
	"repro/internal/term"
)

func TestMain(m *testing.M) {
	mpbackend.MaybeWorker()
	os.Exit(m.Run())
}

// conform puts prog through the conformance oracle (chaos.Check), whose
// multi-process leg runs it in p rank processes of this test binary. The
// program must read back from its own source, or that leg would not run.
func conform(t *testing.T, prog term.Seq, p, m int) {
	t.Helper()
	if _, err := (mpbackend.ProgramParams{Src: prog.String(), M: m}).Prepare(p); err != nil {
		t.Fatalf("%s does not read back from its source: %v", prog, err)
	}
	if err := chaos.Check(chaos.Case{Prog: prog, P: p, M: m}); err != nil {
		t.Fatal(err)
	}
}

// TestMultiProcLegsCountSkips: the oracle counts its multi-process leg as
// run for a program lang reads back and as skipped for one over a derived
// operator, which the rank processes cannot read.
func TestMultiProcLegsCountSkips(t *testing.T) {
	legs := func() (run, skipped int) {
		if _, err := fmt.Sscanf(chaos.MultiProcLegs(), "multi-process: %d run, %d skipped (lang cannot read)", &run, &skipped); err != nil {
			t.Fatal(err)
		}
		return run, skipped
	}
	sr2 := algebra.OpSR2(algebra.Mul, algebra.Add)
	run0, skipped0 := legs()
	for _, prog := range []term.Seq{
		{term.Bcast{}, term.Scan{Op: algebra.Add}},
		{term.Map{F: term.PairFn}, term.Scan{Op: sr2}, term.Map{F: term.FirstFn}},
	} {
		if err := chaos.Check(chaos.Case{Prog: prog, P: 2, M: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if run, skipped := legs(); run-run0 != 1 || skipped-skipped0 != 1 {
		t.Errorf("two checks, one lang cannot read: %d run, %d skipped, want 1 and 1", run-run0, skipped-skipped0)
	}
}

// TestProgramsConform runs rule-grammar programs across process
// boundaries through the oracle: bitwise equality with the in-process
// backends and the semantics' value wherever it determines one. The
// native reference runs the identical program through the same stage
// executor, so any divergence is a transport bug — serialization must be
// value-exact.
func TestProgramsConform(t *testing.T) {
	progs := []string{
		"bcast",
		"reduce(+)",
		"allreduce(+)",
		"scan(+)",
		"bcast ; scan(+)",
		"scan(*) ; reduce(+) ; bcast",
		"gather ; scatter",
		"map pair ; allreduce(min) ; map pi_1",
	}
	sizes := []int{1, 2, 3, 4, 5, 8}
	if testing.Short() {
		progs = progs[:5]
		sizes = []int{1, 2, 3, 4}
	}
	for _, p := range sizes {
		for _, src := range progs {
			t.Run(fmt.Sprintf("p=%d/%s", p, src), func(t *testing.T) {
				parsed, err := lang.Parse(src, nil)
				if err != nil {
					t.Fatal(err)
				}
				conform(t, term.Compose(parsed), p, 16)
			})
		}
	}
}

// TestCollectiveAlgosConform runs every portfolio algorithm across
// process boundaries and asserts bitwise equality with the native
// backend running the identical algorithm.
func TestCollectiveAlgosConform(t *testing.T) {
	type tc struct {
		collective string
		algo       cost.Algo
	}
	cases := []tc{
		{cost.CollAllReduce, cost.AlgoButterfly},
		{cost.CollAllReduce, cost.AlgoRabenseifner},
		{cost.CollAllReduce, cost.AlgoRing},
		{cost.CollAllReduce, cost.AlgoRingBi},
		{cost.CollReduce, cost.AlgoButterfly},
		{cost.CollReduce, cost.AlgoPipeline},
	}
	sizes := []int{4, 7}
	if testing.Short() {
		sizes = []int{4}
	}
	const m, seed, segments = 32, 11, 3
	for _, p := range sizes {
		in := mpbackend.SeededInputs(seed, p, m)
		for _, c := range cases {
			t.Run(fmt.Sprintf("p=%d/%s@%s", p, c.collective, c.algo), func(t *testing.T) {
				want := make([]algebra.Value, p)
				nm := backend.New(p)
				nm.Run(func(pr *backend.Proc) {
					want[pr.Rank()] = coll.ReduceBy(pr, algebra.Add, in[pr.Rank()], c.collective == cost.CollAllReduce, c.algo, segments)
				})
				res, err := mpbackend.Run("collective", p, mpbackend.CollectiveParams{
					Collective: c.collective, Algo: string(c.algo), Op: "add",
					M: m, Segments: segments, Reps: 1, Seed: seed,
				}, mpbackend.Options{})
				if err != nil {
					t.Fatal(err)
				}
				timings, err := mpbackend.Decode[mpbackend.TimingResult](res)
				if err != nil {
					t.Fatal(err)
				}
				for r := range timings {
					got, err := mpbackend.DecodeResult(timings[r].Result)
					if err != nil {
						t.Fatal(err)
					}
					if len(timings[r].RepNs) != 2 {
						t.Fatalf("rank %d reported %d repetitions, want warm-up + 1", r, len(timings[r].RepNs))
					}
					if !algebra.Equal(want[r], got) {
						t.Fatalf("rank %d: multiproc %v, native %v", r, got, want[r])
					}
				}
			})
		}
	}
}

// TestCollectiveAlgosBeyondTheSocketBuffer: a link buffers what the kernel's
// socket does (≈ 200 kB) and no more, so a portfolio algorithm whose blocks
// are larger must not count on a send completing before its receiver reads.
// Five ranks also put the non-power-of-two folds on the wire.
func TestCollectiveAlgosBeyondTheSocketBuffer(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 512 kB blocks between five processes")
	}
	const p, m, seed, segments = 5, 1 << 16, 13, 3
	in := mpbackend.SeededInputs(seed, p, m)
	for _, c := range []struct {
		collective string
		algo       cost.Algo
	}{
		{cost.CollAllReduce, cost.AlgoButterfly},
		{cost.CollAllReduce, cost.AlgoRabenseifner},
		{cost.CollAllReduce, cost.AlgoRing},
		{cost.CollAllReduce, cost.AlgoRingBi},
		{cost.CollReduce, cost.AlgoButterfly},
		{cost.CollReduce, cost.AlgoPipeline},
	} {
		want := make([]algebra.Value, p)
		backend.New(p).Run(func(pr *backend.Proc) {
			want[pr.Rank()] = coll.ReduceBy(pr, algebra.Add, in[pr.Rank()], c.collective == cost.CollAllReduce, c.algo, segments)
		})
		res, err := mpbackend.Run("collective", p, mpbackend.CollectiveParams{
			Collective: c.collective, Algo: string(c.algo), Op: "add",
			M: m, Segments: segments, Reps: 1, Seed: seed,
		}, mpbackend.Options{Timeout: 30 * time.Second})
		if err != nil {
			t.Fatalf("%s@%s: %v", c.collective, c.algo, err)
		}
		timings, err := mpbackend.Decode[mpbackend.TimingResult](res)
		if err != nil {
			t.Fatal(err)
		}
		for r := range timings {
			if got, err := mpbackend.DecodeResult(timings[r].Result); err != nil || !algebra.Equal(want[r], got) {
				t.Fatalf("%s@%s: rank %d differs from native (error %v)", c.collective, c.algo, r, err)
			}
		}
	}
}

// TestCountersMatchNative cross-checks the traffic accounting: the same
// program must move the same messages and words across process boundaries
// as it does on the in-process backends.
func TestCountersMatchNative(t *testing.T) {
	const src = "bcast ; scan(+) ; allreduce(+)"
	const p, m = 5, 8
	syms := lang.NewSymbols()
	parsed, err := lang.Parse(src, syms)
	if err != nil {
		t.Fatal(err)
	}
	prog := term.Compose(parsed)
	in := mpbackend.ConformanceInputs(prog, p, m)
	nm := backend.New(p)
	nres := nm.Run(func(pr *backend.Proc) {
		core.RunStages(pr, prog, in[pr.Rank()])
	})
	res, err := mpbackend.Run("program", p, mpbackend.ProgramParams{Src: src, M: m, Reps: 1}, mpbackend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	msgs, words := 0, 0
	for _, r := range res {
		msgs += r.Msgs
		words += r.Words
	}
	// The body runs a warm-up plus one timed repetition: twice the
	// program's traffic.
	if msgs != 2*nres.Messages || words != 2*nres.Words {
		t.Fatalf("multiproc moved %d msgs/%d words over 2 runs, native %d/%d per run",
			msgs, words, nres.Messages, nres.Words)
	}
}

// TestProbeBody smoke-tests the calibration probes across processes: the
// timing vectors have the warm-up-plus-reps shape and every entry is a
// positive wall-clock measurement.
func TestProbeBody(t *testing.T) {
	for _, probe := range []string{"pingpong", "bcast", "reduce", "scan"} {
		p := 2
		if probe != "pingpong" {
			p = 3
		}
		res, err := mpbackend.Run("probe", p, mpbackend.ProbeParams{Probe: probe, M: 64, Rounds: 4, Reps: 2}, mpbackend.Options{})
		if err != nil {
			t.Fatalf("%s: %v", probe, err)
		}
		timings, err := mpbackend.Decode[mpbackend.TimingResult](res)
		if err != nil {
			t.Fatal(err)
		}
		for r, tr := range timings {
			if len(tr.RepNs) != 3 {
				t.Fatalf("%s rank %d: %d repetitions, want warm-up + 2", probe, r, len(tr.RepNs))
			}
			for i, ns := range tr.RepNs {
				if ns <= 0 {
					t.Fatalf("%s rank %d rep %d: non-positive time %g", probe, r, i, ns)
				}
			}
		}
	}
	res, err := mpbackend.Run("probe", 1, mpbackend.ProbeParams{Probe: "compute", M: 64, Rounds: 16, Reps: 2}, mpbackend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("compute probe returned %d ranks", len(res))
	}
}

// echoRegistered exercises the Register extension seam: a custom body
// compiled into this test binary, resolved by name in the re-executed
// workers. It allgathers the ranks and returns the list, so it also
// checks full-mesh connectivity directly.
func init() {
	mpbackend.Register("test-allgather", func(p *mpbackend.Proc, raw json.RawMessage) (any, error) {
		got := coll.AllGather(p, algebra.Scalar(float64(p.Rank()*p.Rank())))
		out := make([]float64, len(got))
		for i, v := range got {
			out[i] = float64(v.(algebra.Scalar))
		}
		return out, nil
	})
}

func TestRegisteredBody(t *testing.T) {
	const p = 4
	res, err := mpbackend.Run("test-allgather", p, nil, mpbackend.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lists, err := mpbackend.Decode[[]float64](res)
	if err != nil {
		t.Fatal(err)
	}
	for r, list := range lists {
		if len(list) != p {
			t.Fatalf("rank %d gathered %d entries", r, len(list))
		}
		for i, v := range list {
			if v != float64(i*i) {
				t.Fatalf("rank %d entry %d = %g, want %d", r, i, v, i*i)
			}
		}
	}
}

// Two bodies in which rank 3 fails while rank 0 waits for its message: by
// panicking, and by dying outright.
func init() {
	failing := func(fail func()) mpbackend.Body {
		return func(p *mpbackend.Proc, raw json.RawMessage) (any, error) {
			switch p.Rank() {
			case 0:
				p.Recv(3, 1)
			case 3:
				fail()
			}
			return nil, nil
		}
	}
	mpbackend.Register("test-rank3-panics", failing(func() { panic("kaboom") }))
	mpbackend.Register("test-rank3-exits", failing(func() { os.Exit(7) }))
}

// TestRunBlamesTheRankThatFailedFirst: rank 0's failure is only the dead
// link rank 3's panic left behind, so the job reports rank 3's own error.
func TestRunBlamesTheRankThatFailedFirst(t *testing.T) {
	_, err := mpbackend.Run("test-rank3-panics", 4, nil, mpbackend.Options{})
	if err == nil || !strings.Contains(err.Error(), "rank 3: panic: kaboom") {
		t.Fatalf("job reported %v, want rank 3's panic", err)
	}
}

// TestKilledRankIsNamed: a rank process that dies while a peer waits on it
// fails the job promptly with that rank and its exit status — not a hang,
// not a bare timeout.
func TestKilledRankIsNamed(t *testing.T) {
	start := time.Now()
	_, err := mpbackend.Run("test-rank3-exits", 4, nil, mpbackend.Options{})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("job took %v to notice the dead rank", elapsed)
	}
	if err == nil || !strings.Contains(err.Error(), "rank 3: exit status 7") {
		t.Fatalf("job reported %v, want rank 3's exit status", err)
	}
}

// A body in which two ranks wait for each other's message and neither sends.
func init() {
	mpbackend.Register("test-silent-peers", func(p *mpbackend.Proc, raw json.RawMessage) (any, error) {
		p.Recv(1-p.Rank(), 1)
		return nil, nil
	})
}

// TestWatchdogEndsARankBlockedInRecv: a waiting rank sits in a blocking
// system call, not in a select a timer could be a case of, and its own
// watchdog ends it all the same (the other rank's, or the dead link the
// first leaves behind, ends the other) — well before the coordinator's
// kill, which comes five seconds after the timeout and names no rank.
func TestWatchdogEndsARankBlockedInRecv(t *testing.T) {
	start := time.Now()
	_, err := mpbackend.Run("test-silent-peers", 2, nil, mpbackend.Options{Timeout: time.Second})
	if err == nil || !strings.Contains(err.Error(), "timed out after 1s") {
		t.Fatalf("job reported %v, want a rank's watchdog", err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Errorf("the watchdog of a 1 s job took %v", elapsed)
	}
}

// TestRunErrors pins the coordinator's failure modes: unknown bodies and
// failing ranks surface as errors, not hangs.
func TestRunErrors(t *testing.T) {
	if _, err := mpbackend.Run("no-such-body", 2, nil, mpbackend.Options{}); err == nil {
		t.Fatal("unknown body did not fail")
	}
	if _, err := mpbackend.Run("program", 2, mpbackend.ProgramParams{Src: "scan(", M: 1}, mpbackend.Options{}); err == nil {
		t.Fatal("unparsable program did not fail")
	}
	if _, err := mpbackend.Run("probe", 3, mpbackend.ProbeParams{Probe: "pingpong", M: 1, Rounds: 1, Reps: 1}, mpbackend.Options{}); err == nil {
		t.Fatal("pingpong on 3 ranks did not fail")
	}
}
