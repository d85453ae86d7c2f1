package backend_test

import (
	"strings"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
)

// The native Proc must satisfy the communicator interface the collective
// library is written against — that is the whole premise of the backend.
var _ coll.Comm = (*backend.Proc)(nil)

func TestRunTimingAndResultShape(t *testing.T) {
	nm := backend.New(4)
	res := nm.Run(func(p *backend.Proc) {
		coll.AllReduce(p, algebra.Add, algebra.Scalar(float64(p.Rank())))
	})
	if len(res.Ranks) != 4 {
		t.Fatalf("Ranks has %d entries", len(res.Ranks))
	}
	max := time.Duration(0)
	for r, d := range res.Ranks {
		if d <= 0 {
			t.Errorf("rank %d elapsed %v, want > 0", r, d)
		}
		if d > max {
			max = d
		}
	}
	if res.Makespan != max {
		t.Fatalf("Makespan %v != max rank time %v", res.Makespan, max)
	}
}

func TestCounters(t *testing.T) {
	nm := backend.New(2)
	v := make(algebra.Vec, 10)
	res := nm.Run(func(p *backend.Proc) {
		if p.Rank() == 0 {
			p.Send(1, v, 7)
		} else {
			got := p.Recv(0, 7)
			if got.Words() != 10 {
				t.Errorf("received %d words, want 10", got.Words())
			}
		}
		p.Compute(3)
	})
	if res.Messages != 1 || res.Words != 10 {
		t.Fatalf("counted %d messages / %d words, want 1 / 10", res.Messages, res.Words)
	}
	if res.Ops != 6 {
		t.Fatalf("charged %g ops, want 6", res.Ops)
	}
}

func mustPanicRun(t *testing.T, name string, nm *backend.Machine, body func(p *backend.Proc)) string {
	t.Helper()
	var msg string
	func() {
		defer func() {
			if e := recover(); e != nil {
				msg = e.(string)
			}
		}()
		nm.Run(body)
	}()
	if msg == "" {
		t.Fatalf("%s: expected the run to panic", name)
	}
	return msg
}

func TestTagMismatchPanics(t *testing.T) {
	msg := mustPanicRun(t, "tag mismatch", backend.New(2), func(p *backend.Proc) {
		if p.Rank() == 0 {
			p.Send(1, algebra.Scalar(1), 1)
		} else {
			p.Recv(0, 2)
		}
	})
	if !strings.Contains(msg, "expected tag 2") {
		t.Fatalf("panic message %q does not diagnose the tag", msg)
	}
}

func TestDeadlockTimeout(t *testing.T) {
	nm := backend.New(2)
	nm.Timeout = 50 * time.Millisecond
	msg := mustPanicRun(t, "deadlock", nm, func(p *backend.Proc) {
		if p.Rank() == 1 {
			p.Recv(0, 1) // rank 0 never sends
		}
	})
	if !strings.Contains(msg, "waiting for a message") {
		t.Fatalf("panic message %q does not diagnose the deadlock", msg)
	}
}

func TestBodyPanicIdentifiesRank(t *testing.T) {
	msg := mustPanicRun(t, "body panic", backend.New(4), func(p *backend.Proc) {
		if p.Rank() == 2 {
			panic("kaboom")
		}
	})
	if !strings.Contains(msg, "rank 2") || !strings.Contains(msg, "kaboom") {
		t.Fatalf("panic message %q does not identify the failing rank", msg)
	}
}

func TestSelfSendPanics(t *testing.T) {
	mustPanicRun(t, "self send", backend.New(2), func(p *backend.Proc) {
		if p.Rank() == 0 {
			p.Send(0, algebra.Scalar(1), 1)
		}
	})
}

func TestMarksRecorded(t *testing.T) {
	nm := backend.New(2)
	res := nm.Run(func(p *backend.Proc) {
		p.Mark("phase-a")
		coll.AllReduce(p, algebra.Add, algebra.Scalar(1))
		p.Mark("phase-b")
	})
	for r, marks := range res.Marks {
		if len(marks) != 2 || marks[0].Label != "phase-a" || marks[1].Label != "phase-b" {
			t.Fatalf("rank %d marks = %v", r, marks)
		}
		if marks[1].At < marks[0].At {
			t.Fatalf("rank %d marks out of order: %v", r, marks)
		}
	}
}

func TestSingleRank(t *testing.T) {
	nm := backend.New(1)
	var got algebra.Value
	nm.Run(func(p *backend.Proc) {
		got = coll.Scan(p, algebra.Add, algebra.Scalar(42))
	})
	if !algebra.Equal(got, algebra.Scalar(42)) {
		t.Fatalf("singleton scan = %v", got)
	}
}

func TestNewValidatesSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) should panic")
		}
	}()
	backend.New(0)
}
