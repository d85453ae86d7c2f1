// Lifecycle tests of the parked ranks: what a run costs once the machine
// is warm, what a failing rank does to its peers, and when the rank
// goroutines go away.
package backend_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/backend"
)

// TestWarmRunAllocs pins the fixed cost of a run on a warm machine: the
// two slices of its Result and nothing else — no goroutines, channels,
// closures or wait groups per run.
func TestWarmRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m := backend.New(8)
	empty := func(*backend.Proc) {}
	m.Run(empty)
	if allocs := testing.AllocsPerRun(100, func() { m.Run(empty) }); allocs > 2 {
		t.Fatalf("warm empty-body Run at p=8: %.0f allocs, want ≤ 2", allocs)
	}
}

// TestRankFailureCancelsBlockedPeers: a rank that panics while a peer
// waits for its message must end the run at once, not after the peer's
// receive timeout (or never, without one), and the run must report the
// rank that failed, not a peer it cancelled.
func TestRankFailureCancelsBlockedPeers(t *testing.T) {
	for _, timeout := range []time.Duration{backend.DefaultTimeout, 0} {
		m := backend.New(3)
		m.Timeout = timeout
		start := time.Now()
		msg := mustPanic(t, func() {
			m.Run(func(p *backend.Proc) {
				switch p.Rank() {
				case 0:
					panic("kaboom")
				case 1:
					p.Recv(0, 1)
				case 2:
					// Fill the mailbox to rank 1, which never drains it:
					// the send side must be cancellable too.
					for {
						p.Send(1, algebra.Scalar(1), 2)
					}
				}
			})
		})
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("timeout %v: run took %v to notice rank 0's failure", timeout, elapsed)
		}
		if !strings.Contains(msg, "rank 0 failed") || !strings.Contains(msg, "kaboom") {
			t.Errorf("timeout %v: run reported %q, want rank 0's failure", timeout, msg)
		}
	}
}

// TestRunAfterAbortedRun: every way a run can end badly discards the
// ranks, and the same Machine then runs a healthy program on fresh ones.
func TestRunAfterAbortedRun(t *testing.T) {
	for _, c := range []struct {
		name  string
		setup func(m *backend.Machine)
		body  func(p *backend.Proc)
		want  string // "" = the run returns normally
	}{
		{"timeout", func(m *backend.Machine) { m.Timeout = 30 * time.Millisecond },
			func(p *backend.Proc) {
				if p.Rank() == 1 {
					p.Send(2, algebra.Scalar(1), 1) // left in flight
					p.Recv(0, 1)
				}
			}, "timed out"},
		{"watchdog", func(m *backend.Machine) { m.Timeout, m.Watchdog = 0, 30*time.Millisecond },
			func(p *backend.Proc) { p.Recv((p.Rank()+1)%p.Size(), 1) }, "deadlock"},
		{"rank panic", func(*backend.Machine) {},
			func(p *backend.Proc) {
				if p.Rank() == 3 {
					panic("kaboom")
				}
				p.Recv(3, 1)
			}, "rank 3 failed"},
		{"goexit", func(*backend.Machine) {},
			func(p *backend.Proc) {
				if p.Rank() == 0 {
					runtime.Goexit() // what t.FailNow does on a rank
				}
			}, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := backend.New(4)
			c.setup(m)
			if c.want == "" {
				m.Run(c.body)
			} else if msg := mustPanic(t, func() { m.Run(c.body) }); !strings.Contains(msg, c.want) {
				t.Fatalf("aborted run reported %q, want %q", msg, c.want)
			}
			for i := 0; i < 2; i++ {
				res := m.Run(func(p *backend.Proc) {
					tag := p.NextTag()
					next, prev := (p.Rank()+1)%4, (p.Rank()+3)%4
					p.Send(next, algebra.Scalar(float64(p.Rank())), tag)
					if got := p.Recv(prev, tag); !algebra.Equal(got, algebra.Scalar(float64(prev))) {
						t.Errorf("rank %d got %v from rank %d", p.Rank(), got, prev)
					}
				})
				if res.Messages != 4 {
					t.Fatalf("run %d after the aborted one moved %d messages, want 4", i, res.Messages)
				}
			}
		})
	}
}

// TestDroppedMachinesReleaseTheirRanks: a Machine nobody references any
// more takes its parked goroutines with it — the ranks hold the shared
// rank state, never the Machine, so its finalizer can run.
func TestDroppedMachinesReleaseTheirRanks(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 1000; i++ {
		m := backend.New(4)
		// The body references the machine, as bodies that read m.P do.
		m.Run(func(p *backend.Proc) {
			if p.Size() != m.P {
				t.Errorf("rank %d sees %d ranks, want %d", p.Rank(), p.Size(), m.P)
			}
		})
	}
	waitForGoroutines(t, before)
}
