package coll

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/machine"
)

func TestAllToAllAllSizes(t *testing.T) {
	for _, n := range testSizes {
		// Processor i sends the value 100·i + j to processor j.
		m := machine.New(n, machine.Params{Ts: 3, Tw: 1})
		got := make([][]Value, n)
		m.Run(func(proc *machine.Proc) {
			c := Comm(proc)
			parts := make([]Value, n)
			for j := 0; j < n; j++ {
				parts[j] = algebra.Scalar(float64(100*proc.Rank() + j))
			}
			got[proc.Rank()] = AllToAll(c, parts)
		})
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				want := algebra.Scalar(float64(100*i + j))
				if !algebra.Equal(got[j][i], want) {
					t.Fatalf("p=%d: proc %d slot %d = %v, want %v", n, j, i, got[j][i], want)
				}
			}
		}
	}
}

func TestAllToAllVariableSizes(t *testing.T) {
	// Unequal block sizes per destination (as sample sort produces).
	n := 5
	m := machine.New(n, machine.Params{Ts: 3, Tw: 1})
	got := make([][]Value, n)
	m.Run(func(proc *machine.Proc) {
		c := Comm(proc)
		parts := make([]Value, n)
		for j := 0; j < n; j++ {
			v := make(algebra.Vec, (proc.Rank()+j)%3+1)
			for k := range v {
				v[k] = float64(proc.Rank()*100 + j*10 + k)
			}
			parts[j] = v
		}
		got[proc.Rank()] = AllToAll(c, parts)
	})
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			v := got[j][i].(algebra.Vec)
			wantLen := (i+j)%3 + 1
			if len(v) != wantLen {
				t.Fatalf("proc %d from %d: len %d, want %d", j, i, len(v), wantLen)
			}
			for k := range v {
				if v[k] != float64(i*100+j*10+k) {
					t.Fatalf("proc %d from %d: %v", j, i, v)
				}
			}
		}
	}
}

func TestAllToAllSelfSlotUntouched(t *testing.T) {
	m := machine.New(3, machine.Params{})
	m.Run(func(proc *machine.Proc) {
		c := Comm(proc)
		parts := []Value{algebra.Scalar(0), algebra.Scalar(1), algebra.Scalar(2)}
		out := AllToAll(c, parts)
		if !algebra.Equal(out[proc.Rank()], parts[proc.Rank()]) {
			t.Errorf("proc %d self slot = %v", proc.Rank(), out[proc.Rank()])
		}
	})
}

func TestAllToAllWrongPartsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m := machine.New(2, machine.Params{})
	m.Run(func(proc *machine.Proc) {
		AllToAll(Comm(proc), []Value{algebra.Scalar(1)})
	})
}

func TestAllToAllOnSubgroup(t *testing.T) {
	// All-to-all within a subgroup must not disturb outsiders.
	m := machine.New(6, machine.Params{Ts: 2, Tw: 1})
	group := []int{0, 2, 4}
	got := make([][]Value, 6)
	m.Run(func(proc *machine.Proc) {
		c := Comm(proc)
		if proc.Rank()%2 != 0 {
			return
		}
		g := Sub(c, group)
		parts := make([]Value, 3)
		for j := range parts {
			parts[j] = algebra.Scalar(float64(10*g.Rank() + j))
		}
		got[proc.Rank()] = AllToAll(g, parts)
	})
	for gi, global := range group {
		for src := 0; src < 3; src++ {
			want := algebra.Scalar(float64(10*src + gi))
			if !algebra.Equal(got[global][src], want) {
				t.Fatalf("member %d from %d = %v, want %v", gi, src, got[global][src], want)
			}
		}
	}
}
