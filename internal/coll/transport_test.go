package coll

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/machine"
)

// These tests cover the subgroup communicator's tag range and its
// forwarding of ownership-moving sends, on both in-process backends.

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
