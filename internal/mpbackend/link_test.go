package mpbackend

import (
	"fmt"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/algebra"
)

// mesh is the ranks of a p-rank job in this one process, every pair joined
// by a socketpair: the links of a job without the spawn.
func mesh(t testing.TB, p int) []*Proc {
	procs := make([]*Proc, p)
	for r := range procs {
		procs[r] = newProc(r, p)
	}
	t.Cleanup(func() {
		for _, pr := range procs {
			pr.close()
		}
	})
	for a := range procs {
		for b := a + 1; b < p; b++ {
			fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM, 0)
			if err != nil {
				t.Fatal(err)
			}
			procs[a].in[b].fd, procs[b].in[a].fd = fds[0], fds[1]
		}
	}
	return procs
}

// spmd runs body as every rank of the mesh, each on a goroutine of its own,
// and returns what each found wrong — a panic included. A group that is not
// done within the minute is a deadlock: its goroutines sit in system calls
// nothing will end.
func spmd(t *testing.T, procs []*Proc, body func(p *Proc) string) {
	t.Helper()
	found := make([]string, len(procs))
	var wg sync.WaitGroup
	for r, pr := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					found[r] = fmt.Sprint("panic: ", e)
				}
			}()
			found[r] = body(pr)
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("deadlock: the ranks did not finish")
	}
	for r, msg := range found {
		if msg != "" {
			t.Errorf("rank %d: %s", r, msg)
		}
	}
}

// bigWords is a block several times what a socket buffers (≈ 200 kB): a
// send of it cannot complete before the receiver reads.
const bigWords = 1 << 20

// bigBlock is rank r's block: telling whose it is takes two words.
func bigBlock(r int) algebra.Vec {
	v := make(algebra.Vec, bigWords)
	v[0], v[bigWords-1] = float64(r+1), float64(-r-1)
	return v
}

func isBigBlock(v algebra.Value, r int) string {
	if b, ok := v.(algebra.Vec); !ok || len(b) != bigWords || b[0] != float64(r+1) || b[bigWords-1] != float64(-r-1) {
		return fmt.Sprintf("received a %T of %d words, want rank %d's block", v, v.Words(), r)
	}
	return ""
}

// TestWritersFirstDoNotDeadlock: nothing reads a rank's sockets behind its
// back, so a rank whose send finds the socket full must itself take in what
// its peers are sending — or two ranks that both write first wait on each
// other for ever.
func TestWritersFirstDoNotDeadlock(t *testing.T) {
	t.Run("exchange", func(t *testing.T) {
		spmd(t, mesh(t, 2), func(p *Proc) string {
			return isBigBlock(p.Exchange(1-p.Rank(), bigBlock(p.Rank()), 1), 1-p.Rank())
		})
	})
	t.Run("ring of sends", func(t *testing.T) {
		const n = 4
		spmd(t, mesh(t, n), func(p *Proc) string {
			p.Send((p.Rank()+1)%n, bigBlock(p.Rank()), 1)
			left := (p.Rank() + n - 1) % n
			return isBigBlock(p.Recv(left, 1), left)
		})
	})
	t.Run("a thousand Sends", func(t *testing.T) {
		// 1000 frames of 64 words are more than twice a socket buffer, and
		// neither side receives before it has sent them all.
		const frames, words = 1000, 64
		spmd(t, mesh(t, 2), func(p *Proc) string {
			other := 1 - p.Rank()
			v := make(algebra.Vec, words)
			for i := 0; i < frames; i++ {
				v[0] = float64(i)
				p.Send(other, v, 100+i)
			}
			for i := 0; i < frames; i++ {
				if b, ok := p.Recv(other, 100+i).(algebra.Vec); !ok || len(b) != words || b[0] != float64(i) {
					return fmt.Sprintf("frame %d arrived as %v", i, b)
				}
			}
			return ""
		})
	})
}

// TestDeadLinkFailsTheRankThatWaitsOnIt: what a peer sent before it closed
// is still delivered; the receive after that, and a send, fail naming the
// link — and a send into a closed socket is an error, not a SIGPIPE.
func TestDeadLinkFailsTheRankThatWaitsOnIt(t *testing.T) {
	procs := mesh(t, 3)
	a, b := procs[0], procs[1]
	b.Send(0, algebra.Vec{1, 2}, 1)
	b.Send(0, algebra.Scalar(3), 2)
	frame := appendFrame(nil, 3, false, algebra.Vec{4, 5, 6})
	if _, err := syscall.Write(b.in[0].fd, frame[:len(frame)-1]); err != nil {
		t.Fatal(err)
	}
	b.close()
	if got := a.Recv(1, 1); !algebra.Equal(got, algebra.Vec{1, 2}) {
		t.Errorf("first frame before the close: %v", got)
	}
	if got := a.Recv(1, 2); !algebra.Equal(got, algebra.Scalar(3)) {
		t.Errorf("second frame before the close: %v", got)
	}
	for doing, f := range map[string]func(){
		// The frame cut off by the close is not delivered.
		"link from rank 1": func() { a.Recv(1, 3) },
		"link to rank 1":   func() { a.Send(1, algebra.Scalar(0), 4) },
	} {
		func() {
			defer func() {
				if e, ok := recover().(linkDown); !ok || !strings.Contains(string(e), "rank 0: "+doing) {
					t.Errorf("%s died: panic %v, want a linkDown naming it", doing, e)
				}
			}()
			f()
		}()
	}
}

// TestLinkReceiveAllocs: a warm receive allocates nothing — the frame is
// decoded out of the inbox into a buffer the arena has handed out before.
// The sends are in the count and add nothing to it either.
func TestLinkReceiveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	procs := mesh(t, 2)
	a, b := procs[0], procs[1]
	ft := algebra.NewFlatTuple(3, 1024)
	for name, v := range map[string]algebra.Value{
		"Vec":       algebra.Vec(make([]float64, 1024)),
		"FlatTuple": ft,
	} {
		tag := 0
		allocs := testing.AllocsPerRun(100, func() {
			b.ScratchArena().Reset()
			tag++
			a.Send(1, v, tag)
			if got := b.Recv(0, tag); got.Words() != v.Words() {
				t.Fatalf("received %d words of %d", got.Words(), v.Words())
			}
		})
		if allocs != 0 {
			t.Errorf("a warm Send and Recv of a %s allocates %v times, want 0", name, allocs)
		}
	}
}
