package term

import (
	"testing"

	"repro/internal/algebra"
)

// TestScratchBytesIsWhatItKeeps: Bytes counts the storage a Scratch keeps
// across Resets — what decides whether a pooled scratch goes back to its
// pool — and a second evaluation of the same shapes keeps nothing more.
func TestScratchBytesIsWhatItKeeps(t *testing.T) {
	const n, m = 8, 100
	prog := Seq{Scan{Op: algebra.Add}, Map{F: PairFn}, Map{F: FirstFn}, Gather{}, Scatter{}}
	in := make([]algebra.Value, n)
	for i := range in {
		in[i] = make(algebra.Vec, m)
	}
	sc := new(Scratch)
	if sc.Bytes() != 0 {
		t.Fatalf("a new scratch keeps %d bytes", sc.Bytes())
	}
	sc.Eval(prog, in)
	sc.Reset()
	kept := sc.Bytes()
	// The scan's n-1 blocks of m words, n pairs and one n-tuple, and a slab
	// for the five lists.
	if want := (n-1)*(headerBytes+m*wordBytes) + n*(headerBytes+2*valueBytes) + headerBytes + n*valueBytes + minSlab*valueBytes; kept != want {
		t.Errorf("after one evaluation the scratch keeps %d bytes, want %d", kept, want)
	}
	for i := 0; i < 3; i++ {
		sc.Eval(prog, in)
		sc.Reset()
	}
	if sc.Bytes() != kept {
		t.Errorf("evaluating the same shapes again grew the scratch from %d to %d bytes", kept, sc.Bytes())
	}
}
