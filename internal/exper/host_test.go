package exper

import (
	"os"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/cost"
	"repro/internal/mpbackend"
)

// TestMain lets this package's tests spawn multi-process measurement
// jobs: the test binary re-executes itself as the rank workers, and
// MaybeWorker diverts those re-executions before any test runs.
func TestMain(m *testing.M) {
	mpbackend.MaybeWorker()
	os.Exit(m.Run())
}

// hosts are the three Hosts of the measurement layer; the multi-process
// one spawns OS processes, so -short leaves it out.
func hosts(t *testing.T) []Host {
	hs := []Host{VirtualHost(150, 1.25), NativeHost(backend.TransportZeroCopy, 2)}
	if !testing.Short() {
		hs = append(hs, MultiProcHost(2))
	}
	return hs
}

// TestMeasureCollectiveMP runs one real multi-process measurement end to
// end: OS-process ranks, warm-up plus timed repetitions, makespan
// reduction. Skipped in -short mode — it spawns processes.
func TestMeasureCollectiveMP(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	job := mpbackend.CollectiveParams{Collective: cost.CollAllReduce, Algo: string(cost.AlgoButterfly), Op: "add", M: 8, Seed: 11}
	ns, out, err := MultiProcHost(2).Collective(job, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ns <= 0 || len(out) != 3 {
		t.Fatalf("measured makespan %g ns with %d results, want > 0 with 3", ns, len(out))
	}
}

// TestHostProbesReturnPositiveTimes: every probe kind is one job that
// every Host can time.
func TestHostProbesReturnPositiveTimes(t *testing.T) {
	for _, h := range hosts(t) {
		for _, probe := range []struct {
			kind string
			p    int
		}{{"pingpong", 2}, {"compute", 1}, {"bcast", 3}, {"reduce", 3}, {"scan", 3}} {
			got, err := h.Probe(mpbackend.ProbeParams{Probe: probe.kind, M: 64, Rounds: 2}, probe.p)
			if err != nil {
				t.Fatalf("%s %s: %v", h.Name, probe.kind, err)
			}
			if got <= 0 {
				t.Errorf("%s %s: time %g, want > 0", h.Name, probe.kind, got)
			}
		}
		if _, err := h.Probe(mpbackend.ProbeParams{Probe: "warp", M: 1, Rounds: 1}, 2); err == nil {
			t.Errorf("%s: unknown probe kind accepted", h.Name)
		}
	}
}

// TestHostCollectivesConformBitwise: every (collective, algorithm) of the
// portfolio, at a power-of-two and a ragged group size, returns the same
// per-rank results on every Host — the job is one body, so only the
// transport underneath differs.
func TestHostCollectivesConformBitwise(t *testing.T) {
	hs := hosts(t)
	for _, p := range []int{4, 7} {
		for _, collective := range []string{cost.CollAllReduce, cost.CollReduce} {
			for _, a := range cost.Algos(collective) {
				pp := cost.Params{Ts: 150, Tw: 1.25, P: p, M: 32}
				if !cost.Applicable(collective, a, pp) {
					t.Fatalf("%s@%s not applicable at p=%d m=%d; pick a larger block", collective, a, p, pp.M)
				}
				job := mpbackend.CollectiveParams{
					Collective: collective, Algo: string(a), Op: "add",
					M: pp.M, Segments: cost.PipelineSegments(pp), Seed: 11,
				}
				var want []algebra.Value
				for _, h := range hs {
					ns, got, err := h.Collective(job, p)
					if err != nil {
						t.Fatalf("%s %s@%s p=%d: %v", h.Name, collective, a, p, err)
					}
					if ns <= 0 {
						t.Errorf("%s %s@%s p=%d: time %g, want > 0", h.Name, collective, a, p, ns)
					}
					if want == nil {
						want = got
						continue
					}
					if !algebra.IdenticalLists(got, want) {
						t.Errorf("%s %s@%s p=%d: results differ from %s:\n got %v\nwant %v",
							h.Name, collective, a, p, hs[0].Name, got, want)
					}
				}
			}
		}
	}
}
