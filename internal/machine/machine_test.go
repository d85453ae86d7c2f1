package machine

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/algebra"
)

// words is a payload of n machine words.
func words(n int) algebra.Vec { return make(algebra.Vec, n) }

func TestNewValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for p = 0")
		}
	}()
	New(0, DefaultParams())
}

func TestComputeAdvancesClock(t *testing.T) {
	m := New(1, Params{Ts: 10, Tw: 1})
	res := m.Run(func(p *Proc) {
		p.Compute(5)
		p.Compute(2.5)
	})
	if res.Makespan != 7.5 {
		t.Fatalf("makespan = %g, want 7.5", res.Makespan)
	}
}

func TestSendRecvCost(t *testing.T) {
	// One transfer of m words costs ts + m·tw on both ends; the receiver
	// additionally waits for the sender's departure time.
	m := New(2, Params{Ts: 100, Tw: 2})
	res := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(50)
			p.Send(1, words(10), 1)
		} else {
			v := p.Recv(0, 1)
			if v.Words() != 10 {
				t.Errorf("received %v, want 10 words", v)
			}
		}
	})
	// Sender: 50 + 120 = 170. Receiver: max(0, 50) + 120 = 170.
	if res.Clocks[0] != 170 || res.Clocks[1] != 170 {
		t.Fatalf("clocks = %v, want [170 170]", res.Clocks)
	}
}

func TestRecvWaitsForLateSender(t *testing.T) {
	m := New(2, Params{Ts: 10, Tw: 1})
	res := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(1000) // late sender
			p.Send(1, words(1), 1)
		} else {
			p.Recv(0, 1)
		}
	})
	if res.Clocks[1] != 1011 {
		t.Fatalf("receiver clock = %g, want 1011", res.Clocks[1])
	}
}

func TestEarlySenderDoesNotWaitForReceiver(t *testing.T) {
	// The model has no synchronous handshake: the sender is occupied for
	// ts + m·tw from its own clock.
	m := New(2, Params{Ts: 10, Tw: 1})
	res := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, words(5), 1)
		} else {
			p.Compute(500)
			p.Recv(0, 1)
		}
	})
	if res.Clocks[0] != 15 {
		t.Fatalf("sender clock = %g, want 15", res.Clocks[0])
	}
	if res.Clocks[1] != 515 {
		t.Fatalf("receiver clock = %g, want 515", res.Clocks[1])
	}
}

func TestSendRecvExchangeSymmetricCost(t *testing.T) {
	// A bidirectional exchange costs ts + m·tw once on both ends, from
	// the later of the two clocks.
	m := New(2, Params{Ts: 100, Tw: 1})
	res := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Compute(30)
		} else {
			p.Compute(70)
		}
		mine := words(8)
		mine[0] = float64(p.Rank())
		got := p.Exchange(1-p.Rank(), mine, 3).(algebra.Vec)
		if got[0] != float64(1-p.Rank()) {
			t.Errorf("proc %d exchanged value %v, want %d", p.Rank(), got, 1-p.Rank())
		}
	})
	// Both: max(30, 70) + 100 + 8 = 178.
	if res.Clocks[0] != 178 || res.Clocks[1] != 178 {
		t.Fatalf("clocks = %v, want [178 178]", res.Clocks)
	}
}

func TestSendRecvUsesMaxWords(t *testing.T) {
	m := New(2, Params{Ts: 10, Tw: 1})
	res := m.Run(func(p *Proc) {
		n := 3
		if p.Rank() == 1 {
			n = 9
		}
		p.Exchange(1-p.Rank(), words(n), 1)
	})
	if res.Clocks[0] != 19 || res.Clocks[1] != 19 {
		t.Fatalf("clocks = %v, want [19 19]", res.Clocks)
	}
}

func TestMakespanIsMaxClock(t *testing.T) {
	m := New(4, Params{Ts: 1, Tw: 1})
	res := m.Run(func(p *Proc) {
		p.Compute(float64(p.Rank()) * 10)
	})
	if res.Makespan != 30 {
		t.Fatalf("makespan = %g, want 30", res.Makespan)
	}
	if len(res.Clocks) != 4 {
		t.Fatalf("clocks = %v", res.Clocks)
	}
}

func TestMessagesCounted(t *testing.T) {
	m := New(2, Params{})
	res := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, words(1), 1)
			p.Send(1, words(1), 1)
		} else {
			p.Recv(0, 1)
			p.Recv(0, 1)
		}
	})
	if res.Messages != 2 {
		t.Fatalf("messages = %d, want 2", res.Messages)
	}
}

func TestTagMismatchPanics(t *testing.T) {
	m := New(2, Params{})
	m.Timeout = time.Second
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on tag mismatch")
		}
	}()
	m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, words(1), 7)
		} else {
			p.Recv(0, 8)
		}
	})
}

func TestDeadlockDetected(t *testing.T) {
	m := New(2, Params{})
	m.Timeout = 100 * time.Millisecond
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("expected deadlock panic")
		}
		if !strings.Contains(e.(string), "deadlock") {
			t.Fatalf("unexpected panic: %v", e)
		}
	}()
	m.Run(func(p *Proc) {
		if p.Rank() == 1 {
			p.Recv(0, 1) // nobody sends
		}
	})
}

func TestBodyPanicIdentifiesProcessor(t *testing.T) {
	m := New(3, Params{})
	defer func() {
		e := recover()
		if e == nil {
			t.Fatal("expected panic")
		}
		if !strings.Contains(e.(string), "processor 2") {
			t.Fatalf("panic does not identify processor: %v", e)
		}
	}()
	m.Run(func(p *Proc) {
		if p.Rank() == 2 {
			panic("boom")
		}
	})
}

// TestFailingProcessorCancelsBlockedPeers: a processor that panics while a
// peer waits for its message ends the run at once — not after the peer's
// receive timeout, or never without one — and the run reports the
// processor that failed, not the peer it cancelled.
func TestFailingProcessorCancelsBlockedPeers(t *testing.T) {
	for _, timeout := range []time.Duration{30 * time.Second, 0} {
		m := New(4, Params{})
		m.Timeout = timeout
		start := time.Now()
		var msg string
		func() {
			defer func() { msg, _ = recover().(string) }()
			m.Run(func(p *Proc) {
				switch p.Rank() {
				case 0:
					p.Recv(3, 1)
				case 1:
					// Fill the mailbox to rank 2, which never drains it:
					// the send side must be cancellable too.
					for {
						p.Send(2, words(1), 2)
					}
				case 3:
					panic("kaboom")
				}
			})
		}()
		if elapsed := time.Since(start); elapsed > 100*time.Millisecond {
			t.Errorf("timeout %v: run took %v to notice processor 3's failure", timeout, elapsed)
		}
		if !strings.Contains(msg, "processor 3") || !strings.Contains(msg, "kaboom") {
			t.Errorf("timeout %v: run reported %q, want processor 3's failure", timeout, msg)
		}
	}
}

func TestSendToSelfPanics(t *testing.T) {
	m := New(2, Params{})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-send")
		}
	}()
	m.Run(func(p *Proc) {
		p.Send(p.Rank(), words(1), 1)
	})
}

func TestNextTagSynchronized(t *testing.T) {
	m := New(4, Params{})
	tags := make([]int, 4)
	m.Run(func(p *Proc) {
		p.NextTag()
		p.NextTag()
		tags[p.Rank()] = p.NextTag()
	})
	for r, tg := range tags {
		if tg != 3 {
			t.Fatalf("proc %d tag = %d, want 3", r, tg)
		}
	}
}

func TestMachineReusable(t *testing.T) {
	m := New(2, Params{Ts: 1, Tw: 1})
	for i := 0; i < 3; i++ {
		res := m.Run(func(p *Proc) {
			if p.Rank() == 0 {
				p.Send(1, algebra.Scalar(i), 1)
			} else {
				got := p.Recv(0, 1)
				if got != algebra.Scalar(i) {
					t.Errorf("run %d: got %v", i, got)
				}
			}
		})
		if res.Makespan != 2 {
			t.Fatalf("run %d makespan = %g, want 2", i, res.Makespan)
		}
	}
}

func TestQuickClockMonotonic(t *testing.T) {
	// Property: whatever the interleaving of computes and exchanges, no
	// processor's clock ever decreases, and makespan ≥ every per-step time.
	f := func(steps []uint8) bool {
		if len(steps) > 20 {
			steps = steps[:20]
		}
		m := New(2, Params{Ts: 3, Tw: 1})
		ok := true
		m.Run(func(p *Proc) {
			last := 0.0
			for _, s := range steps {
				if s%2 == 0 {
					p.Compute(float64(s % 7))
				} else {
					p.Exchange(1-p.Rank(), words(int(s%5)), int(s))
				}
				if p.Clock() < last || math.IsNaN(p.Clock()) {
					ok = false
				}
				last = p.Clock()
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestTracerRecordsEvents(t *testing.T) {
	m := New(2, Params{Ts: 5, Tw: 1})
	tr := NewTracer()
	m.SetTracer(tr)
	defer m.SetTracer(nil)
	m.Run(func(p *Proc) {
		p.Mark("start")
		p.Compute(3)
		if p.Rank() == 0 {
			p.Send(1, words(2), 1)
		} else {
			p.Recv(0, 1)
		}
	})
	evs := tr.Events()
	var kinds []EventKind
	for _, e := range evs {
		kinds = append(kinds, e.Kind)
	}
	counts := map[EventKind]int{}
	for _, k := range kinds {
		counts[k]++
	}
	if counts[EvMark] != 2 || counts[EvCompute] != 2 || counts[EvSend] != 1 || counts[EvRecv] != 1 {
		t.Fatalf("event counts = %v", counts)
	}
	// Events are sorted by start time.
	for i := 1; i < len(evs); i++ {
		if evs[i].Start < evs[i-1].Start {
			t.Fatalf("events not sorted: %v", evs)
		}
	}
	tr.Reset()
	if len(tr.Events()) != 0 {
		t.Fatal("Reset did not clear events")
	}
}

func TestTimelineRenders(t *testing.T) {
	evs := []Event{
		{Kind: EvCompute, Proc: 0, Peer: -1, Start: 0, End: 10},
		{Kind: EvExchange, Proc: 1, Peer: 0, Start: 10, End: 20},
	}
	out := Timeline(evs, 2, 40)
	if !strings.Contains(out, "P0") || !strings.Contains(out, "P1") {
		t.Fatalf("timeline missing processor rows:\n%s", out)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "x") {
		t.Fatalf("timeline missing glyphs:\n%s", out)
	}
	if !strings.Contains(out, "legend") {
		t.Fatalf("timeline missing legend:\n%s", out)
	}
}

func TestEventKindString(t *testing.T) {
	for k, want := range map[EventKind]string{
		EvCompute: "compute", EvSend: "send", EvRecv: "recv",
		EvExchange: "exchange", EvMark: "mark",
	} {
		if k.String() != want {
			t.Errorf("EventKind(%d).String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if got := EventKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind string = %q", got)
	}
}
