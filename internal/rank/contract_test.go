// The link contract: one table-driven suite run over every way a program
// can hold a communicator — a rank of each backend, a subgroup of each
// in-process one, an in-process rank whose link is wrapped in faults
// (package chaos) — asserting that all of them run the same message
// discipline. The multi-process carrier spawns real OS processes: the test
// binary re-executes itself (TestMain calls MaybeWorker) and resolves the
// scenario by name.
package rank_test

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
	"repro/internal/machine"
	"repro/internal/mpbackend"
	"repro/internal/rank"
)

func TestMain(m *testing.M) {
	mpbackend.MaybeWorker()
	os.Exit(m.Run())
}

// traits are what a scenario may assume of the communicator it runs on.
type traits struct {
	// Moves: SendMove transfers ownership (otherwise it is a borrow).
	Moves bool
}

// scenarios are SPMD bodies over a 3-rank communicator. Each returns what
// it found wrong on its rank, "" for nothing. Ranks that must order their
// steps do so by messages — through rank 2 when the 0→1 link is the one
// under test — so the same body runs across OS processes.
var scenarios = map[string]func(c coll.Comm, k traits) string{
	"checks":    checks,
	"tags":      tags,
	"raw":       raw,
	"ownership": ownership,
	"traffic":   traffic,
}

// panicText runs f and returns its panic message, "" if it returned.
func panicText(f func()) (msg string) {
	defer func() {
		if e := recover(); e != nil {
			msg = fmt.Sprint(e)
		}
	}()
	f()
	return ""
}

// checks: a rank cannot address itself or a rank that does not exist.
func checks(c coll.Comm, k traits) string {
	one := algebra.Scalar(1)
	me := c.Rank()
	for name, f := range map[string]func(){
		"Send to self":     func() { c.Send(me, one, 1) },
		"SendMove to self": func() { c.SendMove(me, one, 1) },
		"Exchange to self": func() { c.Exchange(me, one, 1) },
	} {
		if msg := panicText(f); !strings.Contains(msg, "itself") {
			return fmt.Sprintf("%s: panic %q does not name the self-send", name, msg)
		}
	}
	for name, f := range map[string]func(){
		"Send":     func() { c.Send(7, one, 1) },
		"Recv":     func() { c.Recv(7, 1) },
		"Exchange": func() { c.Exchange(-7, one, 1) },
	} {
		if msg := panicText(f); !strings.Contains(msg, "7") {
			return fmt.Sprintf("%s out of range: panic %q does not name rank 7", name, msg)
		}
	}
	return ""
}

// tags: a message under the wrong tag fails the receive, naming both tags,
// and the link carries on.
func tags(c coll.Comm, k traits) string {
	v := algebra.Vec{1, 2, 3}
	switch c.Rank() {
	case 0:
		c.Send(1, v, 7)
		c.Send(1, v, 9)
		if !algebra.Equal(v, algebra.Vec{1, 2, 3}) {
			return "a borrowing Send changed the sender's value"
		}
	case 1:
		msg := panicText(func() { c.Recv(0, 8) })
		if !strings.Contains(msg, "expected tag 8") || !strings.Contains(msg, "got 7") {
			return fmt.Sprintf("tag mismatch panic %q does not name both tags", msg)
		}
		if got := c.Recv(0, 9); !algebra.Equal(got, v) {
			return fmt.Sprintf("after the mismatch: received %v, want %v", got, v)
		}
	}
	return ""
}

// raw: beneath the tag check a link delivers in the order it was sent,
// whatever the tags — faults or not. A receive that asks for the later of
// two messages first fails naming both tags, and a run of messages under
// distinct tags arrives as it was sent. The run is long enough for the
// chaos carriers' seed to hold one of its messages back for the next to
// overtake.
func raw(c coll.Comm, k traits) string {
	const run = 32
	switch c.Rank() {
	case 0:
		c.Send(1, algebra.Scalar(7), 7)
		c.Send(1, algebra.Scalar(9), 9)
		for i := 0; i < run; i++ {
			c.Send(1, algebra.Scalar(float64(i)), 100+i)
		}
	case 1:
		msg := panicText(func() { c.Recv(0, 9) })
		if !strings.Contains(msg, "expected tag 9") || !strings.Contains(msg, "got 7") {
			return fmt.Sprintf("receiving tag 9 before tag 7: panic %q does not name both tags", msg)
		}
		if got := c.Recv(0, 9); !algebra.Equal(got, algebra.Scalar(9)) {
			return fmt.Sprintf("after the mismatch: received %v, want 9", got)
		}
		for i := 0; i < run; i++ {
			if got := c.Recv(0, 100+i); !algebra.Equal(got, algebra.Scalar(float64(i))) {
				return fmt.Sprintf("message %d of the run: received %v, want %d", i, got, i)
			}
		}
	}
	return ""
}

// ownership: SendMove poisons the sender and RecvOwned adopts where the
// link moves; both are plain borrows where it does not.
func ownership(c coll.Comm, k traits) string {
	one := algebra.Scalar(1)
	switch c.Rank() {
	case 0:
		ft := algebra.NewFlatTuple(2, 4)
		for i := range ft.Data {
			ft.Data[i] = float64(i + 1)
		}
		c.SendMove(1, ft, 5)
		if ft.IsMoved() != k.Moves {
			return fmt.Sprintf("after SendMove the sender's tuple is poisoned: %v, want %v", ft.IsMoved(), k.Moves)
		}
		msg := panicText(func() { ft.Comp(0) })
		if k.Moves != strings.Contains(msg, "ownership was moved") {
			return fmt.Sprintf("sender reading its tuple after SendMove: panic %q, moves = %v", msg, k.Moves)
		}
		// The receiver's adoption clears the poison checked above, so it
		// waits for this — relayed by rank 2: the 0→1 link is FIFO.
		c.Send(2, one, 6)
	case 2:
		c.Send(1, c.Recv(0, 6), 6)
	case 1:
		c.Recv(2, 6)
		v, owned := c.RecvOwned(0, 5)
		if owned != k.Moves {
			return fmt.Sprintf("RecvOwned reported owned = %v, want %v", owned, k.Moves)
		}
		ft, ok := v.(*algebra.FlatTuple)
		if !ok || ft.IsMoved() {
			return fmt.Sprintf("received %T (moved: %v), want a readable FlatTuple", v, ok && ft.IsMoved())
		}
		if ft.W != 2 || ft.Data[0] != 1 || ft.Data[7] != 8 {
			return fmt.Sprintf("received %v, want the sender's 2×4 tuple", ft)
		}
		if owned {
			ft.Data[0] = 99 // the new owner writes in place
		}
	}
	return ""
}

// traffic is a fixed mix of every counted operation; its totals must be
// the same wherever it runs.
func traffic(c coll.Comm, k traits) string {
	r, n := c.Rank(), c.Size()
	v := algebra.Vec{1, 2, 3, 4}
	tag := c.NextTag()
	c.Send((r+1)%n, v, tag)
	c.Recv((r+n-1)%n, tag)
	if r < 2 {
		c.Exchange(1-r, algebra.Scalar(float64(r)), c.NextTag())
	} else {
		c.NextTag()
	}
	tag = c.NextTag()
	if r == 0 {
		c.SendMove(2, algebra.NewFlatTuple(2, 3), tag)
	} else if r == 2 {
		c.RecvOwned(0, tag)
	}
	c.Compute(12.5)
	sum := coll.AllReduce(c, algebra.Add, algebra.Scalar(float64(r+1)))
	if !algebra.Equal(sum, algebra.Scalar(float64(n*(n+1)/2))) {
		return fmt.Sprintf("allreduce = %v", sum)
	}
	return ""
}

// totals are a run's traffic and work, summed over its ranks.
type totals struct {
	Msgs, Words int
	Ops         float64
}

// carrier is one way of holding a 3-rank communicator.
type carrier struct {
	name   string
	traits traits
	// run executes the named scenario and returns the per-rank findings.
	run func(t *testing.T, scenario string, k traits) ([]string, totals)
}

// group is the subgroup the Sub carriers run on: ranks 3, 0, 2 of a
// 4-rank machine, so every group rank differs from its machine rank.
var group = []int{3, 0, 2}

func inGroup(r int) bool { return r != 1 }

// A wrap runs body on what a carrier makes of a backend's rank c, whose
// Core is r: the rank itself, a subgroup, or the rank with its link
// wrapped in faults.
type wrap func(c coll.Comm, r *rank.Core, body func(c coll.Comm))

func virtual(on wrap, p int) func(*testing.T, string, traits) ([]string, totals) {
	return func(t *testing.T, scenario string, k traits) ([]string, totals) {
		out := make([]string, p)
		res := machine.New(p, machine.Params{Ts: 1, Tw: 1}).Run(func(pr *machine.Proc) {
			on(pr, &pr.Core, func(c coll.Comm) { out[pr.Rank()] = scenarios[scenario](c, k) })
		})
		return out, totals{res.Messages, res.Words, res.Ops}
	}
}

func native(mode backend.TransportMode, on wrap, p int) func(*testing.T, string, traits) ([]string, totals) {
	return func(t *testing.T, scenario string, k traits) ([]string, totals) {
		out := make([]string, p)
		nm := backend.New(p)
		nm.Transport = mode
		nm.Timeout = 10 * time.Second
		res := nm.Run(func(pr *backend.Proc) {
			on(pr, &pr.Core, func(c coll.Comm) { out[pr.Rank()] = scenarios[scenario](c, k) })
		})
		return out, totals{res.Messages, res.Words, res.Ops}
	}
}

func bare(c coll.Comm, _ *rank.Core, body func(coll.Comm)) { body(c) }

func sub(c coll.Comm, _ *rank.Core, body func(coll.Comm)) {
	if inGroup(c.Rank()) {
		body(coll.Sub(c, group))
	}
}

// faulty runs body with the rank's link wrapped in the storm profile.
func faulty(c coll.Comm, r *rank.Core, body func(coll.Comm)) {
	l := chaos.Install(r, chaos.MustByName("storm"), 1)
	body(c)
	l.Fence()
}

// contractParams names a scenario for the multi-process body.
type contractParams struct {
	Scenario string
	Traits   traits
}

func init() {
	mpbackend.Register("link-contract", func(p *mpbackend.Proc, rawParams json.RawMessage) (any, error) {
		var ps contractParams
		if err := json.Unmarshal(rawParams, &ps); err != nil {
			return nil, err
		}
		return scenarios[ps.Scenario](p, ps.Traits), nil
	})
}

func multiproc(t *testing.T, scenario string, k traits) ([]string, totals) {
	res, err := mpbackend.Run("link-contract", 3, contractParams{scenario, k}, mpbackend.Options{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	out, err := mpbackend.Decode[string](res)
	if err != nil {
		t.Fatal(err)
	}
	var sum totals
	for _, r := range res {
		sum.Msgs, sum.Words, sum.Ops = sum.Msgs+r.Msgs, sum.Words+r.Words, sum.Ops+r.Ops
	}
	return out, sum
}

func carriers() []carrier {
	borrows, moves := traits{}, traits{Moves: true}
	return []carrier{
		{"virtual", borrows, virtual(bare, 3)},
		{"native-zerocopy", moves, native(backend.TransportZeroCopy, bare, 3)},
		{"native-copy", moves, native(backend.TransportCopy, bare, 3)},
		{"multiproc", moves, multiproc},
		{"sub/virtual", borrows, virtual(sub, 4)},
		{"sub/native-zerocopy", moves, native(backend.TransportZeroCopy, sub, 4)},
		{"sub/native-copy", moves, native(backend.TransportCopy, sub, 4)},
		{"chaos/native", borrows, native(backend.TransportZeroCopy, faulty, 3)},
		{"chaos/virtual", borrows, virtual(faulty, 3)},
	}
}

// TestLinkContract runs every scenario on every carrier, and requires the
// traffic scenario's totals to be the virtual machine's on every carrier:
// a subgroup renumbers the ranks and a chaos-wrapped link repeats and
// loses packets, but both sit above or below the counters of rank.Core.
func TestLinkContract(t *testing.T) {
	var want totals
	for _, cr := range carriers() {
		for name := range scenarios {
			t.Run(cr.name+"/"+name, func(t *testing.T) {
				found, got := cr.run(t, name, cr.traits)
				for r, f := range found {
					if f != "" {
						t.Errorf("rank %d: %s", r, f)
					}
				}
				if name != "traffic" {
					return
				}
				if want == (totals{}) {
					want = got
				}
				if got != want || got.Msgs == 0 {
					t.Errorf("traffic totals %+v, virtual machine %+v", got, want)
				}
			})
		}
	}
}
