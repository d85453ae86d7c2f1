package coll

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/machine"
)

// forBothBackends runs the same SPMD body on the virtual machine and on
// the native goroutine backend and checks each outcome. Group isolation
// is a property of the communicator layer's tag discipline, so it must
// hold identically however the messages are actually delivered.
func forBothBackends(t *testing.T, p int, work func(c Comm, out []Value), check func(t *testing.T, out []Value)) {
	t.Helper()
	t.Run("virtual", func(t *testing.T) {
		out := make([]Value, p)
		machine.New(p, machine.Params{Ts: 3, Tw: 1}).Run(func(proc *machine.Proc) {
			work(Comm(proc), out)
		})
		check(t, out)
	})
	t.Run("native", func(t *testing.T) {
		out := make([]Value, p)
		backend.New(p).Run(func(proc *backend.Proc) {
			work(proc, out)
		})
		check(t, out)
	})
}

// TestDisjointGroupIsolation: two disjoint halves run different numbers
// of collectives concurrently; the per-communicator tag sequences must
// keep the traffic apart on both backends.
func TestDisjointGroupIsolation(t *testing.T) {
	forBothBackends(t, 8,
		func(c Comm, out []Value) {
			g := Split(c, c.Rank()/4, c.Rank())
			v := Value(algebra.Scalar(float64(c.Rank() + 1)))
			if c.Rank() < 4 {
				v = Scan(g, algebra.Add, v)
				v = AllReduce(g, algebra.Max, v)
				v = Bcast(g, 0, v)
			} else {
				v = AllReduce(g, algebra.Mul, v)
			}
			out[c.Rank()] = v
		},
		func(t *testing.T, out []Value) {
			// Group 0: scan [1 2 3 4] → [1 3 6 10]; max → 10; bcast → 10.
			// Group 1: product 5·6·7·8 = 1680.
			for r := 0; r < 4; r++ {
				if !algebra.Equal(out[r], algebra.Scalar(10)) {
					t.Fatalf("group 0 member %d = %v, want 10", r, out[r])
				}
			}
			for r := 4; r < 8; r++ {
				if !algebra.Equal(out[r], algebra.Scalar(1680)) {
					t.Fatalf("group 1 member %d = %v, want 1680", r, out[r])
				}
			}
		})
}

// TestGridRowColumnIsolation: a 2×3 grid where every rank belongs to one
// row group AND one column group, so the groups overlap pairwise.
// Row and column collectives alternate; any tag cross-talk between the
// two memberships would corrupt the values.
func TestGridRowColumnIsolation(t *testing.T) {
	const cols = 3
	forBothBackends(t, 6,
		func(c Comm, out []Value) {
			r := c.Rank()
			row := Split(c, r/cols, r)
			col := Split(c, r%cols, r)
			v := Value(algebra.Scalar(float64(r + 1)))
			v = Scan(row, algebra.Add, v)
			v = AllReduce(col, algebra.Mul, v)
			v = Scan(row, algebra.Add, v)
			out[r] = v
		},
		func(t *testing.T, out []Value) {
			// Values [1..6]. Row scans: [1 3 6 | 4 9 15]. Column products:
			// [4 27 90 | 4 27 90]. Row scans again: [4 31 121 | 4 31 121].
			want := []float64{4, 31, 121, 4, 31, 121}
			for r, w := range want {
				if !algebra.Equal(out[r], algebra.Scalar(w)) {
					t.Fatalf("grid member %d = %v, want %g (row/column cross-talk?)", r, out[r], w)
				}
			}
		})
}

// TestOverlappingSubgroupsShareMember: groups {0,1,2} and {2,3,4} share
// rank 2, which runs a collective in each, one after the other. The
// late-starting second group must wait for rank 2, not steal messages
// from the first group's traffic.
func TestOverlappingSubgroupsShareMember(t *testing.T) {
	groupA := []int{0, 1, 2}
	groupB := []int{2, 3, 4}
	forBothBackends(t, 5,
		func(c Comm, out []Value) {
			r := c.Rank()
			v := Value(algebra.Scalar(float64(r + 1)))
			if r <= 2 {
				v = AllReduce(Sub(c, groupA), algebra.Add, v)
			}
			if r >= 2 {
				v = AllReduce(Sub(c, groupB), algebra.Add, v)
			}
			out[r] = AllReduce(c, algebra.Max, v)
		},
		func(t *testing.T, out []Value) {
			// A sums 1+2+3 = 6; rank 2 carries 6 into B, so B sums
			// 6+4+5 = 15; the world max is 15 everywhere.
			for r := 0; r < 5; r++ {
				if !algebra.Equal(out[r], algebra.Scalar(15)) {
					t.Fatalf("member %d = %v, want 15", r, out[r])
				}
			}
		})
}

// TestParentAndSubgroupInterleaved: collectives on the world communicator
// interleave with collectives on a subgroup of it. The subgroup's offset
// tag sequence keeps its messages from matching pending world traffic.
func TestParentAndSubgroupInterleaved(t *testing.T) {
	forBothBackends(t, 4,
		func(c Comm, out []Value) {
			r := c.Rank()
			v := Bcast(c, 0, Value(algebra.Scalar(float64(r+1))))
			g := Split(c, r%2, r)
			v = Scan(g, algebra.Add, v)
			v = AllReduce(c, algebra.Add, v)
			out[r] = v
		},
		func(t *testing.T, out []Value) {
			// Bcast from 0 → all 1. Pair scans → [1 1 2 2]. World sum 6.
			for r := 0; r < 4; r++ {
				if !algebra.Equal(out[r], algebra.Scalar(6)) {
					t.Fatalf("member %d = %v, want 6", r, out[r])
				}
			}
		})
}
