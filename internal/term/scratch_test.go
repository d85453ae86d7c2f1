package term

import (
	"testing"

	"repro/internal/algebra"
)

// TestScratchBytesIsWhatItKeeps: Bytes counts the storage a Scratch keeps
// across Resets — blocks, boxed tuples, flat tuples and the slab, which
// decide whether a pooled scratch goes back to its pool — and a second
// evaluation of the same shapes keeps nothing more.
func TestScratchBytesIsWhatItKeeps(t *testing.T) {
	const n, m = 8, 100
	inc := &Fn{Name: "inc",
		F: func(v algebra.Value) algebra.Value { return algebra.Add.Apply(v, algebra.Scalar(1)) },
		Into: func(st Store, v algebra.Value) algebra.Value {
			return algebra.Add.ApplyInto(st.Vec(len(v.(algebra.Vec))), v, algebra.Scalar(1))
		},
	}
	sr2 := algebra.OpSR2(algebra.Mul, algebra.Add)
	prog := Seq{Scan{Op: algebra.Add}, Map{F: PairFn}, Scan{Op: sr2}, Map{F: FirstFn}, Map{F: inc}, Gather{}, Scatter{}}
	in := make([]algebra.Value, n)
	for i := range in {
		in[i] = make(algebra.Vec, m)
	}
	sc := new(Scratch)
	if sc.Bytes() != 0 {
		t.Fatalf("a new scratch keeps %d bytes", sc.Bytes())
	}
	if _, ok := new(Scratch).Eval(Seq{Map{F: PairFn}, Scan{Op: sr2}}, in)[1].(*algebra.FlatTuple); !ok {
		t.Fatal("scan(op_sr2) of pairs of blocks is not a flat tuple in a scratch")
	}
	out := sc.Eval(prog, in)
	if want := Eval(prog, in); !algebra.EqualLists(out, want) {
		t.Fatalf("scratch %v, Eval %v", out, want)
	}
	sc.Reset()
	kept := sc.Bytes()
	block, pair, flatPair := headerBytes+m*wordBytes, headerBytes+2*valueBytes, flatBytes+2*m*wordBytes
	// Blocks: the scan's n-1, π₁'s n-1 copies out of flat pairs, map inc's
	// n. Boxed: the n pairs and one n-tuple. Flat: the n-1 results of
	// scan(op_sr2) and the operand its last combine flattened. A slab for the
	// seven lists.
	if want := (3*n-2)*block + n*pair + (headerBytes + n*valueBytes) + n*flatPair + minSlab*valueBytes; kept != want {
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
