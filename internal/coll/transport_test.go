package coll

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/machine"
)

// These tests cover the raw link layer beneath the tag discipline — the
// raw link (rank.Caps.Raw) the chaos decorator builds its wire protocol on — and the
// subgroup communicator's forwarding of ownership-moving sends, on both
// in-process backends.

func TestWorldTransportRoundTrip(t *testing.T) {
	// The virtual machine's rank exposes the raw link: a TrySend lands as
	// an untagged RecvAny, and TryRecvAny only reports messages that have
	// already arrived.
	m := machine.New(2, machine.Params{Ts: 1, Tw: 1})
	m.Run(func(proc *machine.Proc) {
		c := Comm(proc)
		tr := c.Caps().Raw
		if tr == nil {
			t.Error("world communicator does not expose its raw link")
			return
		}
		if proc.Rank() == 0 {
			if !tr.TrySend(1, algebra.Scalar(7), 42) {
				t.Error("TrySend failed on an empty link")
			}
			return
		}
		v, tag := tr.RecvAny(0)
		if !algebra.Equal(v, algebra.Scalar(7)) || tag != 42 {
			t.Errorf("RecvAny = %v tag %d, want 7 tag 42", v, tag)
		}
		if _, _, ok := tr.TryRecvAny(0); ok {
			t.Error("TryRecvAny reported a message on a drained link")
		}
	})
}

func TestTrySendBackpressureNative(t *testing.T) {
	// The native backend's mailboxes hold 4 messages per directed pair:
	// the 5th TrySend must refuse rather than block, and room must
	// reopen once the receiver drains — the invariant the fault-injecting
	// decorators' retry loops depend on.
	nm := backend.New(2)
	full := make(chan struct{})
	drained := make(chan struct{})
	sent := make(chan struct{})
	v := algebra.Value(algebra.Scalar(1))
	nm.Run(func(p *backend.Proc) {
		tr := Comm(p).Caps().Raw
		if p.Rank() == 0 {
			for i := 0; i < 4; i++ {
				if !tr.TrySend(1, v, 100+i) {
					t.Errorf("TrySend %d failed below the mailbox cap", i)
				}
			}
			if tr.TrySend(1, v, 104) {
				t.Error("5th TrySend succeeded on a full mailbox")
			}
			close(full)
			<-drained
			if !tr.TrySend(1, v, 105) {
				t.Error("TrySend failed after the receiver drained the mailbox")
			}
			close(sent)
			return
		}
		<-full
		for i := 0; i < 4; i++ {
			if _, tag := tr.RecvAny(0); tag != 100+i {
				t.Errorf("drained tag %d, want %d (FIFO per link)", tag, 100+i)
			}
		}
		if _, _, ok := tr.TryRecvAny(0); ok {
			t.Error("TryRecvAny reported a message on a drained mailbox")
		}
		close(drained)
		<-sent
		if _, tag, ok := tr.TryRecvAny(0); !ok || tag != 105 {
			t.Errorf("TryRecvAny after refill = tag %d ok %v, want 105 true", tag, ok)
		}
	})
}

func TestSubTagsOffsetFromParent(t *testing.T) {
	// Subgroup tag sequences live in a disjoint range from the parent's:
	// a sloppy caller mixing parent and subgroup collectives must hit a
	// tag-mismatch panic, never silent cross-talk.
	m := machine.New(2, machine.Params{Ts: 1, Tw: 1})
	m.Run(func(proc *machine.Proc) {
		c := Comm(proc)
		sc := Sub(c, []int{0, 1})
		if pt := c.NextTag(); pt >= 1<<20 {
			t.Errorf("parent tag %d collides with the subgroup range", pt)
		}
		if st := sc.NextTag(); st < 1<<20 {
			t.Errorf("subgroup tag %d not offset out of the parent range", st)
		}
	})
}

func TestSubMoverForwarding(t *testing.T) {
	// A subgroup over the native backend keeps the parent transport's
	// move fast path: SendMove through the sub reaches the translated
	// parent rank as an ownership transfer, and the sender's tuple is
	// poisoned exactly as on the world communicator.
	nm := backend.New(4)
	group := []int{1, 3} // sub rank 0 → world 1, sub rank 1 → world 3
	ft := algebra.NewFlatTuple(2, 4)
	for i := range ft.Data {
		ft.Data[i] = float64(i + 1)
	}
	// The receiver's adoption clears the poison the sender checks for, so
	// it waits — on a Go channel, not a message: the pair's mailbox is
	// FIFO and tag-checked — until the sender is done looking.
	checked := make(chan struct{})
	nm.Run(func(p *backend.Proc) {
		if p.Rank() != 1 && p.Rank() != 3 {
			return
		}
		sc := Sub(Comm(p), group)
		if sc.Rank() == 0 {
			defer close(checked)
		}
		if sc.Rank() == 0 {
			sc.SendMove(1, ft, 8)
			if !ft.IsMoved() {
				t.Error("sub SendMove did not poison the sender's tuple")
			}
			return
		}
		<-checked
		v, owned := sc.RecvOwned(0, 8)
		if !owned {
			t.Error("sub RecvOwned reported a borrow after SendMove")
		}
		got, ok := v.(*algebra.FlatTuple)
		if !ok || got.IsMoved() {
			t.Errorf("adopted value = %T moved=%v, want owned FlatTuple", v, ok && got.IsMoved())
			return
		}
		got.Data[0] = 99 // new owner writes in place
	})
}

func TestSubMoverFallbackOnVirtual(t *testing.T) {
	// The virtual machine's link cannot transfer ownership: a subgroup's
	// SendMove is a borrowing Send — the value stays readable at the
	// sender and RecvOwned reports a borrow — so collectives written
	// against SendMove/RecvOwned run unmodified there.
	m := machine.New(3, machine.Params{Ts: 1, Tw: 1})
	group := []int{0, 2}
	ft := algebra.NewFlatTuple(1, 4)
	ft.Data[0] = 5
	m.Run(func(proc *machine.Proc) {
		if proc.Rank() == 1 {
			return
		}
		sc := Sub(Comm(proc), group)
		if sc.Rank() == 0 {
			sc.SendMove(1, ft, 3)
			if ft.IsMoved() {
				t.Error("fallback borrow poisoned the sender's tuple")
			}
			if got := ft.Comp(0)[0]; got != 5 {
				t.Errorf("sender's value changed after fallback send: %g", got)
			}
			return
		}
		v, owned := sc.RecvOwned(0, 3)
		if owned {
			t.Error("virtual-machine transport reported an ownership transfer")
		}
		if v.Words() != 4 {
			t.Errorf("received %d words, want 4", v.Words())
		}
	})
}
