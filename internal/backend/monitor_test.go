// Tests of what a blocked rank waits on: the monitor's timing contract,
// the poison packet that carries a cancellation into a mailbox, and the
// cost of a blocking receive with every limit armed.
package backend_test

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/backend"
)

// TestTimeoutFiresWithinBounds pins the monitor's timing contract: a rank
// raises a receive timeout no earlier than the limit and no later than
// 1.25 × limit after the first wait began, a deadlock report likewise after
// the last, plus however late the runtime runs the tick that first sees
// the wait and the tick that fires, plus 2 ms. Two control timers armed
// before the run measure those: one due at the first tick, one at
// 1.25 × limit.
func TestTimeoutFiresWithinBounds(t *testing.T) {
	for _, limit := range []time.Duration{40 * time.Millisecond, 400 * time.Millisecond} {
		for _, c := range []struct {
			name  string
			setup func(m *backend.Machine)
			want  string
			// all says that the limit runs from the last wait: a deadlock
			// is every rank waiting.
			all bool
		}{
			{"timeout", func(m *backend.Machine) { m.Timeout = limit }, "timed out after " + limit.String(), false},
			{"watchdog", func(m *backend.Machine) { m.Timeout, m.Watchdog = 0, limit }, "deadlock", true},
		} {
			t.Run(fmt.Sprint(c.name, "/", limit), func(t *testing.T) {
				m := backend.New(2)
				c.setup(m)
				m.Run(func(*backend.Proc) {}) // spawn the ranks off the clock
				latest, late := limit+limit/4, make(chan time.Duration, 2)
				start := time.Now()
				for _, due := range []time.Duration{limit / 8, latest} {
					time.AfterFunc(due, func() { late <- time.Since(start) - due })
				}
				var began, raised [2]time.Time
				msg := mustPanic(t, func() {
					m.Run(func(p *backend.Proc) {
						r := p.Rank()
						defer func() { raised[r] = time.Now() }()
						began[r] = time.Now()
						p.Recv(1-r, 1)
					})
				})
				if !strings.Contains(msg, c.want) {
					t.Fatalf("run reported %q, want %q", msg, c.want)
				}
				from := began[0]
				if began[1].After(from) == c.all {
					from = began[1]
				}
				elapsed := min(raised[0].Sub(from), raised[1].Sub(from))
				if control := <-late + <-late; elapsed < limit || elapsed > latest+control+2*time.Millisecond {
					t.Errorf("raised %v after the wait began, want within [%v, %v + %v, the control timers' lateness, + 2ms]", elapsed, limit, latest, control)
				}
			})
		}
	}
}

// TestBlockedReceiveAllocs: with Timeout and Watchdog both armed, a warm
// run of 1024 round trips — every receive of which blocks — allocates its
// Result and nothing per receive.
func TestBlockedReceiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m := backend.New(2)
	m.Watchdog = 5 * time.Second
	v := algebra.Value(algebra.Scalar(1))
	pingpong := func(p *backend.Proc) {
		for k := 0; k < 1024; k++ {
			if p.Rank() == 0 {
				p.Send(1, v, k)
				p.Recv(1, k)
			} else {
				p.Recv(0, k)
				p.Send(0, v, k)
			}
		}
	}
	m.Run(pingpong)
	if allocs := testing.AllocsPerRun(20, func() { m.Run(pingpong) }); allocs > 2 {
		t.Fatalf("warm run of 2048 blocking receives: %.0f allocs, want ≤ 2 (the Result)", allocs)
	}
}

// TestPoisonDoesNotOutliveItsRun: however a run is lost — a rank panics, a
// receive times out, the watchdog fires — with peers blocked in Recv, in
// Exchange and in a Send on a full mailbox, the poison that woke them goes
// with the discarded ranks: the next runs on the same Machine see exactly
// the messages they send.
func TestPoisonDoesNotOutliveItsRun(t *testing.T) {
	one := algebra.Scalar(1)
	for _, c := range []struct {
		name  string
		setup func(m *backend.Machine)
		rank0 func(p *backend.Proc)
		want  string
	}{
		{"rank panic", func(*backend.Machine) {},
			func(*backend.Proc) {
				time.Sleep(20 * time.Millisecond) // let the peers block first
				panic("kaboom")
			}, "rank 0 failed: kaboom"},
		{"timeout", func(m *backend.Machine) { m.Timeout = 30 * time.Millisecond },
			func(p *backend.Proc) { p.Recv(1, 1) }, "timed out"},
		{"watchdog", func(m *backend.Machine) { m.Timeout, m.Watchdog = 0, 30*time.Millisecond },
			func(p *backend.Proc) { p.Recv(1, 1) }, "deadlock"},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := backend.New(4)
			c.setup(m)
			msg := mustPanic(t, func() {
				m.Run(func(p *backend.Proc) {
					switch p.Rank() {
					case 0:
						c.rank0(p)
					case 1:
						p.Recv(0, 1)
					case 2:
						p.Exchange(0, one, 2)
					case 3:
						for { // rank 1 never drains it
							p.Send(1, one, 3)
						}
					}
				})
			})
			if !strings.Contains(msg, c.want) {
				t.Fatalf("lost run reported %q, want %q", msg, c.want)
			}
			for i := 0; i < 2; i++ {
				// A packet left over — a poison, or a message of the lost run —
				// is the first this run reads on its link: it fails the tag
				// check or, a poison, ends the rank's body early.
				var done [4]bool
				m.Run(func(p *backend.Proc) {
					r, n := p.Rank(), p.Size()
					tag := p.NextTag()
					if got := p.Exchange(r^1, algebra.Scalar(float64(r)), tag); !algebra.Equal(got, algebra.Scalar(float64(r^1))) {
						t.Errorf("run %d: rank %d exchanged %v with rank %d", i, r, got, r^1)
					}
					for peer := 0; peer < n; peer++ {
						if peer != r {
							p.Send(peer, algebra.Scalar(float64(r)), 77)
						}
					}
					for peer := 0; peer < n; peer++ {
						if peer == r {
							continue
						}
						if got := p.Recv(peer, 77); !algebra.Equal(got, algebra.Scalar(float64(peer))) {
							t.Errorf("run %d: rank %d received %v from rank %d", i, r, got, peer)
						}
					}
					done[r] = true
				})
				for r, ok := range done {
					if !ok {
						t.Errorf("run %d: rank %d did not finish its body", i, r)
					}
				}
			}
		})
	}
}

// TestMessageRacingTheTimeout sends the awaited message within a tick of
// the moment the monitor condemns the receive. Whichever wins, the run
// either completes with the right value or fails with the timeout
// diagnosis of that edge — a condemned receive never passes a message on,
// and the kick that follows it never surfaces as data.
func TestMessageRacingTheTimeout(t *testing.T) {
	const timeout = 8 * time.Millisecond // ticks of 1 ms: condemned 8–10 ms in
	edge := regexp.MustCompile(`rank 0 timed out after 8ms waiting for a message from rank 1 \(tag 9\); 0 messages received, 0 sent so far`)
	m := backend.New(2)
	m.Timeout = timeout
	completed, timedOut := 0, 0
	for i := 0; i < 200; i++ {
		delay := timeout + time.Duration(i%5)*500*time.Microsecond
		var got algebra.Value
		msg, clean := "", false
		func() {
			defer func() {
				if e := recover(); e != nil {
					msg = fmt.Sprint(e)
				}
			}()
			m.Run(func(p *backend.Proc) {
				if p.Rank() == 0 {
					got = p.Recv(1, 9)
					// A kick left behind would be this read's, and end the
					// body here.
					p.Recv(1, 10)
					clean = true
					return
				}
				time.Sleep(delay)
				p.Send(0, algebra.Scalar(float64(i)), 9)
				p.Send(0, algebra.Scalar(0), 10)
			})
		}()
		switch {
		case msg == "" && clean && algebra.Equal(got, algebra.Scalar(float64(i))):
			completed++
		case edge.MatchString(msg):
			timedOut++
		default:
			t.Fatalf("iteration %d (delay %v): received %v, run reported %q", i, delay, got, msg)
		}
	}
	t.Logf("%d runs completed, %d timed out", completed, timedOut)
}

// TestMailboxCapChangeTakesEffect: MailboxCap is a per-run setting like the
// others — a machine that has already run must not keep the mailboxes of
// its old capacity.
func TestMailboxCapChangeTakesEffect(t *testing.T) {
	one := algebra.Scalar(1)
	warm := func(p *backend.Proc) {
		if p.Rank() == 0 {
			p.Send(1, one, 1)
		} else {
			p.Recv(0, 1)
		}
	}

	// Three sends into a one-slot mailbox wait for its reader.
	const nap = 100 * time.Millisecond
	m := backend.New(2)
	m.Run(warm)
	m.MailboxCap = 1
	res := m.Run(func(p *backend.Proc) {
		for i := 0; i < 3; i++ {
			if p.Rank() == 0 {
				p.Send(1, one, 2)
			} else {
				if i == 0 {
					time.Sleep(nap)
				}
				p.Recv(0, 2)
			}
		}
	})
	if res.Ranks[0] < nap/2 {
		t.Errorf("rank 0 put 3 messages into a one-slot mailbox in %v while its reader slept %v", res.Ranks[0], nap)
	}

	// Two ranks that only send wedge on one slot, not on the default four.
	m = backend.New(2)
	m.Run(warm)
	m.Timeout, m.MailboxCap, m.Watchdog = 0, 1, 50*time.Millisecond
	msg := mustPanic(t, func() {
		m.Run(func(p *backend.Proc) {
			for i := 0; i < 3; i++ {
				p.Send(1-p.Rank(), one, 3)
			}
		})
	})
	for r := 0; r < 2; r++ {
		if want := fmt.Sprintf("rank %d: blocked sending to rank %d (tag 3)", r, 1-r); !strings.Contains(msg, want) {
			t.Errorf("no %q in:\n%s", want, msg)
		}
	}
}
