package backend_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
)

// transportModes are the two payload disciplines every transport test
// sweeps: the zero-copy default and the deep-copying isolation baseline.
var transportModes = []backend.TransportMode{backend.TransportZeroCopy, backend.TransportCopy}

// TestZeroCopySendAllocFree pins the zero-copy transport's core promise:
// a steady-state Send of a large block allocates nothing — only the
// reference crosses the mailbox — while the copying transport pays one
// allocation per message for the clone, O(m) words each. The count is a
// regression fence for the ownership-transfer fast path; it is skipped
// under the race detector, whose instrumentation allocates.
func TestZeroCopySendAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const m = 1 << 16
	const runs = 64
	for _, mode := range transportModes {
		t.Run(mode.String(), func(t *testing.T) {
			nm := backend.New(2)
			nm.Timeout = 0 // no monitor armed: nothing runs in this process but the loop
			nm.Transport = mode
			big := algebra.Value(make(algebra.Vec, m))
			ack := algebra.Value(algebra.Scalar(1))
			var allocs float64
			nm.Run(func(p *backend.Proc) {
				if p.Rank() == 0 {
					allocs = testing.AllocsPerRun(runs, func() {
						p.Send(1, big, 7)
						p.Recv(1, 7)
					})
					return
				}
				for i := 0; i <= runs; i++ { // AllocsPerRun's warm-up, then runs
					p.Recv(0, 7)
					p.Send(0, ack, 7)
				}
			})
			switch mode {
			case backend.TransportZeroCopy:
				if allocs != 0 {
					t.Fatalf("zero-copy Send of %d words: %.0f allocs/op, want 0", m, allocs)
				}
			case backend.TransportCopy:
				if allocs < 1 {
					t.Fatalf("copying Send of %d words: %.0f allocs/op, want ≥ 1 (the clone)", m, allocs)
				}
			}
		})
	}
}

// TestSendMovePoisonsSender checks the double-use guard of the ownership
// protocol on both transports: after SendMove the sender's flat tuple is
// poisoned — any access panics — while the receiver adopts an owned,
// writable value. Under zero-copy the very storage crosses; under copy
// the receiver gets an independent clone; the sender-side discipline is
// identical either way, so a program cannot pass on one transport and
// corrupt memory on the other.
func TestSendMovePoisonsSender(t *testing.T) {
	for _, mode := range transportModes {
		t.Run(mode.String(), func(t *testing.T) {
			nm := backend.New(2)
			nm.Transport = mode
			ft := algebra.NewFlatTuple(2, 8)
			for i := range ft.Data {
				ft.Data[i] = float64(i)
			}
			// The receiver's adoption clears the poison the sender checks
			// for, so it waits — on a Go channel, not a message: the
			// pair's mailbox is FIFO and tag-checked — until the sender
			// is done looking.
			checked := make(chan struct{})
			nm.Run(func(p *backend.Proc) {
				if p.Rank() == 0 {
					defer close(checked)
					p.SendMove(1, ft, 5)
					if !ft.IsMoved() {
						t.Error("sender's tuple not marked moved after SendMove")
					}
					defer func() {
						r := recover()
						if r == nil {
							t.Error("accessing a moved-away FlatTuple did not panic")
						} else if !strings.Contains(fmt.Sprint(r), "ownership was moved") {
							t.Errorf("unexpected panic: %v", r)
						}
					}()
					ft.Comp(0) // must panic: the storage moved to rank 1
					return
				}
				<-checked
				v, owned := p.RecvOwned(0, 5)
				if !owned {
					t.Error("RecvOwned after SendMove reported a borrow")
				}
				got, ok := v.(*algebra.FlatTuple)
				if !ok {
					t.Fatalf("received %T, want *algebra.FlatTuple", v)
				}
				if got.IsMoved() {
					t.Error("receiver's tuple still carries the move poison")
				}
				aliased := &got.Data[0] == &ft.Data[0]
				if mode == backend.TransportZeroCopy && !aliased {
					t.Error("zero-copy move did not hand over the backing storage")
				}
				if mode == backend.TransportCopy && aliased {
					t.Error("copying move aliased the sender's storage")
				}
				got.Data[0] = 42 // the new owner may write in place
			})
		})
	}
}

// TestBorrowingSendStaysReadable is the counterpart: a plain Send is a
// borrow — the sender keeps reading its value afterwards on both
// transports.
func TestBorrowingSendStaysReadable(t *testing.T) {
	for _, mode := range transportModes {
		t.Run(mode.String(), func(t *testing.T) {
			nm := backend.New(2)
			nm.Transport = mode
			ft := algebra.NewFlatTuple(2, 4)
			ft.Data[0] = 3
			nm.Run(func(p *backend.Proc) {
				if p.Rank() == 0 {
					p.Send(1, ft, 9)
					if got := ft.Comp(0)[0]; got != 3 {
						t.Errorf("borrowed value changed under the sender: %g", got)
					}
					return
				}
				v, owned := p.RecvOwned(0, 9)
				if owned {
					t.Error("plain Send arrived with ownership")
				}
				if v.Words() != ft.Words() {
					t.Errorf("received %d words, want %d", v.Words(), ft.Words())
				}
			})
		})
	}
}

// TestTransportsBitwiseConform runs the same collectives on both
// transports and requires bitwise-equal results: the zero-copy ownership
// protocol is a pure optimization, never a semantic change.
func TestTransportsBitwiseConform(t *testing.T) {
	const p, m = 6, 32
	run := func(mode backend.TransportMode) ([]coll.Value, []coll.Value) {
		nm := backend.New(p)
		nm.Transport = mode
		in := make([]algebra.Value, p)
		for r := 0; r < p; r++ {
			vec := make(algebra.Vec, m)
			for i := range vec {
				vec[i] = float64((r*13+i*7)%11) / 3
			}
			in[r] = vec
		}
		red := make([]coll.Value, p)
		scn := make([]coll.Value, p)
		nm.Run(func(pr *backend.Proc) {
			r := pr.Rank()
			red[r] = coll.AllReduce(pr, algebra.Add, in[r])
			scn[r] = coll.Scan(pr, algebra.Add, in[r])
		})
		return red, scn
	}
	zcRed, zcScn := run(backend.TransportZeroCopy)
	cpRed, cpScn := run(backend.TransportCopy)
	if !algebra.IdenticalLists(zcRed, cpRed) {
		t.Errorf("allreduce differs across transports:\nzerocopy %v\ncopy     %v", zcRed, cpRed)
	}
	if !algebra.IdenticalLists(zcScn, cpScn) {
		t.Errorf("scan differs across transports:\nzerocopy %v\ncopy     %v", zcScn, cpScn)
	}
}

// BenchmarkTransportPingPong measures the per-message cost of shipping an
// m-word block under each transport: zero-copy is O(1) in m (a reference
// through the mailbox), copy is O(m) (the clone). SetBytes makes the
// bandwidth gap visible; ReportAllocs pins the allocation story the
// regression test above asserts.
func BenchmarkTransportPingPong(b *testing.B) {
	for _, mode := range transportModes {
		for _, m := range []int{1 << 10, 1 << 14, 1 << 17} {
			b.Run(fmt.Sprintf("%s/m=%d", mode, m), func(b *testing.B) {
				nm := backend.New(2)
				nm.Timeout = 0
				nm.Transport = mode
				big := algebra.Value(make(algebra.Vec, m))
				ack := algebra.Value(algebra.Scalar(1))
				b.SetBytes(int64(m * 8))
				b.ReportAllocs()
				b.ResetTimer()
				nm.Run(func(p *backend.Proc) {
					for i := 0; i < b.N; i++ {
						if p.Rank() == 0 {
							p.Send(1, big, i)
							p.Recv(1, i)
						} else {
							p.Recv(0, i)
							p.Send(0, ack, i)
						}
					}
				})
			})
		}
	}
}
