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
		Into: func(ar *algebra.Arena, v algebra.Value) algebra.Value {
			return algebra.Add.ApplyInto(ar.Vec(len(v.(algebra.Vec))), v, algebra.Scalar(1))
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
	// Bytes of the slice header a boxed Vec or Tuple points to, of a
	// FlatTuple's own fields with its first block's box and of a word, on a
	// 64-bit machine, as algebra.Arena counts them.
	const headerBytes, flatBytes, wordBytes = 24, 56 + 24, 8
	block, pair, flatPair := headerBytes+m*wordBytes, headerBytes+2*valueBytes, flatBytes+2*m*wordBytes
	// Blocks: the scan's n-1 and map inc's n; π₁ views the flat pairs.
	// Boxed: the n pairs and one n-tuple. Flat: the n-1 results of
	// scan(op_sr2) and the operand its last combine flattened. A slab for the
	// seven lists.
	if want := (2*n-1)*block + n*pair + (headerBytes + n*valueBytes) + n*flatPair + minSlab*valueBytes; kept != want {
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
