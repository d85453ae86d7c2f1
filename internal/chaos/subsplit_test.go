// Subgroup coverage under fault injection: Sub and Split communicators
// layer their tag discipline on top of the chaos decorator, so subgroup
// collectives must survive delay and reorder exactly like full-group
// ones — including overlapping groups used in sequence and parent-level
// traffic interleaved between subgroup operations.
package chaos_test

import (
	"fmt"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/chaos"
	"repro/internal/coll"
	"repro/internal/machine"
)

// everywhere runs an SPMD body bare on both backends and chaos-wrapped on
// both under every profile and seed — the oracle's legs, for bodies that
// are not stage programs — and demands the bare native results, which it
// returns, bit for bit from every other run.
func everywhere(t *testing.T, p int, profiles []chaos.Profile, seeds int, body func(c coll.Comm) algebra.Value) []algebra.Value {
	t.Helper()
	run := func(on func(func(c coll.Comm))) []algebra.Value {
		out := make([]algebra.Value, p)
		on(func(c coll.Comm) { out[c.Rank()] = body(c) })
		return out
	}
	want := run(func(b func(coll.Comm)) { backend.New(p).Run(func(pr *backend.Proc) { b(pr) }) })
	same := func(leg string, got []algebra.Value) {
		t.Helper()
		for r := range want {
			if !algebra.Equal(got[r], want[r]) {
				t.Fatalf("%s rank %d: %v, bare native %v", leg, r, got[r], want[r])
			}
		}
	}
	same("bare virtual", run(func(b func(coll.Comm)) {
		machine.New(p, machine.Params{Ts: 100, Tw: 1}).Run(func(pr *machine.Proc) { b(pr) })
	}))
	for _, prof := range profiles {
		for seed := int64(0); seed < int64(seeds); seed++ {
			same(fmt.Sprintf("%s/seed=%d chaos native", prof.Name, seed), run(func(b func(coll.Comm)) { chaos.OnNative(p, prof, seed, b) }))
			same(fmt.Sprintf("%s/seed=%d chaos virtual", prof.Name, seed), run(func(b func(coll.Comm)) { chaos.OnVirtual(p, prof, seed, b) }))
		}
	}
	return want
}

// checkEverywhere is everywhere under delay, reorder and storm.
func checkEverywhere(t *testing.T, p int, body func(c coll.Comm) algebra.Value) {
	t.Helper()
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	profiles := []chaos.Profile{chaos.MustByName("delay"), chaos.MustByName("reorder"), chaos.MustByName("storm")}
	everywhere(t, p, profiles, seeds, body)
}

// contains reports whether rank is in ranks.
func contains(ranks []int, rank int) bool {
	for _, r := range ranks {
		if r == rank {
			return true
		}
	}
	return false
}

// TestSubUnderChaos drives two overlapping subgroups in sequence, with
// full-group collectives interleaved before, between and after them, so
// subgroup tags (offset into their own namespace, and reused by the
// second group) meet parent traffic and each other on faulted links.
func TestSubUnderChaos(t *testing.T) {
	const p = 6
	g1 := []int{0, 1, 2, 3}
	g2 := []int{2, 3, 4, 5} // overlaps g1 in ranks 2 and 3
	body := func(c coll.Comm) algebra.Value {
		x := algebra.Scalar(float64(c.Rank()*3 + 1))
		a := coll.Bcast(c, 0, x) // parent traffic before any subgroup
		r1 := algebra.Value(algebra.Scalar(0))
		if contains(g1, c.Rank()) {
			s := coll.Sub(c, g1)
			r1 = coll.AllReduce(s, algebra.Add, x)
		}
		b := coll.AllReduce(c, algebra.Max, x) // parent traffic between the groups
		r2 := algebra.Value(algebra.Scalar(0))
		if contains(g2, c.Rank()) {
			s := coll.Sub(c, g2)
			r2 = coll.Scan(s, algebra.Add, x)
		}
		d := coll.Bcast(c, p-1, x) // parent traffic after
		return algebra.Tuple{a, r1, b, r2, d}
	}
	checkEverywhere(t, p, body)
}

// TestSplitUnderChaos partitions the world twice — rows, then columns of
// a 2×3 grid — with a full-group broadcast interleaved between the two
// partitions. Every member calls Split, so the allgather inside it runs
// under faults too.
func TestSplitUnderChaos(t *testing.T) {
	const p = 6
	body := func(c coll.Comm) algebra.Value {
		x := algebra.Scalar(float64(c.Rank() + 1))
		row := coll.Split(c, c.Rank()/3, c.Rank())
		rsum := coll.AllReduce(row, algebra.Add, x)
		mid := coll.Bcast(c, 1, rsum) // parent traffic between the partitions
		col := coll.Split(c, c.Rank()%3, -c.Rank())
		cscan := coll.Scan(col, algebra.Mul, x)
		return algebra.Tuple{rsum, mid, cscan}
	}
	checkEverywhere(t, p, body)
}

// TestSubExpectedValues pins the subgroup results to hand-computed
// values on one chaotic run, so the comparison above cannot be
// trivially green by all backends computing the same wrong thing.
func TestSubExpectedValues(t *testing.T) {
	const p = 4
	out := make([]algebra.Value, p)
	chaos.OnNative(p, chaos.MustByName("storm"), 11, func(c coll.Comm) {
		x := algebra.Scalar(float64(c.Rank() + 1)) // 1, 2, 3, 4
		if c.Rank() == 0 {
			out[0] = x
			return
		}
		s := coll.Sub(c, []int{1, 2, 3})
		out[c.Rank()] = coll.AllReduce(s, algebra.Add, x) // 2+3+4 on every member
	})
	for r := 1; r < p; r++ {
		if !algebra.Equal(out[r], algebra.Scalar(9)) {
			t.Fatalf("rank %d: got %v, want 9", r, out[r])
		}
	}
}
