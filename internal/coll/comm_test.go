package coll

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/machine"
)

func TestWorldBasics(t *testing.T) {
	m := machine.New(4, machine.Params{Ts: 1, Tw: 1})
	m.Run(func(proc *machine.Proc) {
		c := Comm(proc)
		if c.Rank() != proc.Rank() || c.Size() != 4 {
			t.Errorf("world rank/size = %d/%d", c.Rank(), c.Size())
		}
	})
}

func TestSubRankTranslation(t *testing.T) {
	// Split 6 processors into evens and odds; run a scan in each group
	// concurrently and check results against each group's own inputs.
	xs := scalars(10, 1, 20, 2, 30, 3)
	m := machine.New(6, machine.Params{Ts: 5, Tw: 1})
	out := make([]Value, 6)
	m.Run(func(proc *machine.Proc) {
		c := Comm(proc)
		var group []int
		if proc.Rank()%2 == 0 {
			group = []int{0, 2, 4}
		} else {
			group = []int{1, 3, 5}
		}
		sub := Sub(c, group)
		if sub.Size() != 3 {
			t.Errorf("sub size = %d", sub.Size())
		}
		if group[sub.Rank()] != proc.Rank() {
			t.Errorf("rank translation broken: sub rank %d, global %d", sub.Rank(), proc.Rank())
		}
		out[proc.Rank()] = Scan(sub, algebra.Add, xs[proc.Rank()])
	})
	// Evens scan [10 20 30] → [10 30 60]; odds scan [1 2 3] → [1 3 6].
	want := scalars(10, 1, 30, 3, 60, 6)
	if !algebra.EqualLists(out, want) {
		t.Fatalf("subgroup scans = %v, want %v", out, want)
	}
}

func TestSubCollectivesFullSuite(t *testing.T) {
	// Every collective must work on a subgroup exactly as on a world of
	// the same size.
	rng := rand.New(rand.NewSource(61))
	for _, subSize := range []int{1, 2, 3, 4, 5} {
		total := subSize + 3 // some processors stay outside the group
		xs := randScalars(rng, total)
		group := make([]int, subSize)
		for i := range group {
			group[i] = i + 1 // ranks 1..subSize
		}
		m := machine.New(total, machine.Params{Ts: 2, Tw: 1})
		out := make([]Value, total)
		m.Run(func(proc *machine.Proc) {
			c := Comm(proc)
			in := false
			for _, g := range group {
				if g == proc.Rank() {
					in = true
				}
			}
			if !in {
				return
			}
			sub := Sub(c, group)
			v := Bcast(sub, 0, xs[group[0]])
			v = algebra.Add.Apply(v, xs[proc.Rank()])
			v = AllReduce(sub, algebra.Add, v)
			out[proc.Rank()] = v
		})
		// Reference: every member receives xs[group[0]] + own, then sum.
		var sum float64
		for _, g := range group {
			sum += float64(xs[group[0]].(algebra.Scalar)) + float64(xs[g].(algebra.Scalar))
		}
		for _, g := range group {
			if !algebra.Equal(out[g], algebra.Scalar(sum)) {
				t.Fatalf("subSize=%d: member %d = %v, want %g", subSize, g, out[g], sum)
			}
		}
	}
}

func TestSubValidation(t *testing.T) {
	m := machine.New(3, machine.Params{})
	m.Run(func(proc *machine.Proc) {
		c := Comm(proc)
		mustPanic := func(name string, f func()) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}
		if proc.Rank() == 0 {
			mustPanic("out of range", func() { Sub(c, []int{0, 7}) })
			mustPanic("duplicate", func() { Sub(c, []int{0, 0}) })
			mustPanic("caller missing", func() { Sub(c, []int{1, 2}) })
		}
	})
}

func TestSplitByColor(t *testing.T) {
	// MPI_Comm_split semantics: same color groups together, ordered by
	// key then parent rank.
	m := machine.New(6, machine.Params{Ts: 2, Tw: 1})
	sizes := make([]int, 6)
	ranks := make([]int, 6)
	sums := make([]Value, 6)
	m.Run(func(proc *machine.Proc) {
		c := Comm(proc)
		color := proc.Rank() % 2
		key := -proc.Rank() // reverse order within the group
		g := Split(c, color, key)
		sizes[proc.Rank()] = g.Size()
		ranks[proc.Rank()] = g.Rank()
		sums[proc.Rank()] = AllReduce(g, algebra.Add, algebra.Scalar(float64(proc.Rank())))
	})
	for r := 0; r < 6; r++ {
		if sizes[r] != 3 {
			t.Fatalf("proc %d group size = %d", r, sizes[r])
		}
	}
	// Reverse key ordering: global 4 gets group rank 0 among evens.
	if ranks[4] != 0 || ranks[0] != 2 {
		t.Fatalf("even group ranks = [%d _ %d _ %d _]", ranks[0], ranks[2], ranks[4])
	}
	// Evens sum 0+2+4 = 6, odds 1+3+5 = 9.
	for r := 0; r < 6; r++ {
		want := 6.0
		if r%2 == 1 {
			want = 9
		}
		if !algebra.Equal(sums[r], algebra.Scalar(want)) {
			t.Fatalf("proc %d group sum = %v, want %g", r, sums[r], want)
		}
	}
}

func TestSplitSingletonGroups(t *testing.T) {
	m := machine.New(3, machine.Params{})
	m.Run(func(proc *machine.Proc) {
		c := Comm(proc)
		g := Split(c, proc.Rank(), 0) // every processor its own color
		if g.Size() != 1 || g.Rank() != 0 {
			t.Errorf("proc %d: singleton group size=%d rank=%d", proc.Rank(), g.Size(), g.Rank())
		}
		// Collectives on a singleton group are identities.
		v := Scan(g, algebra.Add, algebra.Scalar(7))
		if !algebra.Equal(v, algebra.Scalar(7)) {
			t.Errorf("singleton scan = %v", v)
		}
	})
}

func TestNestedSub(t *testing.T) {
	// A subgroup of a subgroup translates ranks through both layers.
	xs := scalars(0, 10, 20, 30, 40, 50, 60, 70)
	m := machine.New(8, machine.Params{Ts: 1, Tw: 1})
	out := make([]Value, 8)
	m.Run(func(proc *machine.Proc) {
		c := Comm(proc)
		if proc.Rank()%2 != 0 {
			return
		}
		evens := Sub(c, []int{0, 2, 4, 6}) // group ranks 0..3
		if proc.Rank() == 0 || proc.Rank() == 4 {
			inner := Sub(evens, []int{0, 2}) // global 0 and 4
			out[proc.Rank()] = AllReduce(inner, algebra.Add, xs[proc.Rank()])
		}
	})
	if !algebra.Equal(out[0], algebra.Scalar(40)) || !algebra.Equal(out[4], algebra.Scalar(40)) {
		t.Fatalf("nested sub allreduce = %v / %v, want 40", out[0], out[4])
	}
}

func TestConcurrentGroupsDoNotInterfere(t *testing.T) {
	// Two groups run different numbers of collectives concurrently; the
	// per-communicator tag sequences keep them isolated.
	m := machine.New(8, machine.Params{Ts: 3, Tw: 1})
	out := make([]Value, 8)
	m.Run(func(proc *machine.Proc) {
		c := Comm(proc)
		g := Split(c, proc.Rank()/4, proc.Rank())
		v := Value(algebra.Scalar(float64(proc.Rank() + 1)))
		if proc.Rank() < 4 {
			// Group 0: three collectives.
			v = Scan(g, algebra.Add, v)
			v = AllReduce(g, algebra.Max, v)
			v = Bcast(g, 0, v)
		} else {
			// Group 1: one collective.
			v = AllReduce(g, algebra.Mul, v)
		}
		out[proc.Rank()] = v
	})
	// Group 0: scan [1 2 3 4] → [1 3 6 10]; allreduce max → 10; bcast → 10.
	for r := 0; r < 4; r++ {
		if !algebra.Equal(out[r], algebra.Scalar(10)) {
			t.Fatalf("group 0 member %d = %v, want 10", r, out[r])
		}
	}
	// Group 1: product 5·6·7·8 = 1680.
	for r := 4; r < 8; r++ {
		if !algebra.Equal(out[r], algebra.Scalar(1680)) {
			t.Fatalf("group 1 member %d = %v, want 1680", r, out[r])
		}
	}
}

func TestBalancedCollectivesOnSubgroups(t *testing.T) {
	// The paper's new collectives must also work on subgroups.
	xs := scalars(9, 2, 9, 5, 9, 9, 9, 1, 9, 2, 9, 6)
	group := []int{1, 3, 5, 7, 9, 11} // values [2 5 9 1 2 6] — Figure 4/5
	m := machine.New(12, machine.Params{Ts: 4, Tw: 1})
	outR := make([]Value, 12)
	outS := make([]Value, 12)
	m.Run(func(proc *machine.Proc) {
		c := Comm(proc)
		in := proc.Rank()%2 == 1
		if !in {
			return
		}
		g := Sub(c, group)
		sr := algebra.OpSR(algebra.Add)
		outR[proc.Rank()] = ReduceBalanced(g, sr, algebra.Pair(xs[proc.Rank()]))
		ss := algebra.OpSS(algebra.Add)
		outS[proc.Rank()] = ScanBalanced(g, ss, algebra.Quadruple(xs[proc.Rank()]))
	})
	want := algebra.Tuple{algebra.Scalar(86), algebra.Scalar(200)}
	if !algebra.Equal(outR[1], want) {
		t.Fatalf("subgroup balanced reduce = %v, want %v", outR[1], want)
	}
	wantS := []float64{2, 9, 25, 42, 61, 86}
	for i, g := range group {
		if !algebra.Equal(algebra.First(outS[g]), algebra.Scalar(wantS[i])) {
			t.Fatalf("subgroup balanced scan member %d = %v, want %g",
				g, algebra.First(outS[g]), wantS[i])
		}
	}
}
