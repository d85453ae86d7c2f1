package apps

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/machine"
)

// MatVec multiplies a dense matrix by a vector in the PLAPACK style the
// paper cites ([18]): the matrix is distributed by contiguous row blocks,
// the vector lives on the first processor, and the program is three
// collectives and one local stage:
//
//	bcast x ; local y_i = A_i · x ; gather y
//
// It returns the product vector (assembled on the root and returned to
// the caller) and the machine result.
func MatVec(mach Machine, a algebra.Mat, x algebra.Vec) (algebra.Vec, machine.Result) {
	if a.C != len(x) {
		panic(fmt.Sprintf("apps: %d×%d matrix against %d-vector", a.R, a.C, len(x)))
	}
	p := mach.P
	// Row-block distribution.
	rowBlocks := make([]algebra.Mat, p)
	per := a.R / p
	rem := a.R % p
	off := 0
	for i := 0; i < p; i++ {
		rows := per
		if i < rem {
			rows++
		}
		rowBlocks[i] = algebra.Mat{R: rows, C: a.C, Data: a.Data[off*a.C : (off+rows)*a.C]}
		off += rows
	}
	var result algebra.Vec
	res := mach.virtual().Run(func(c *machine.Proc) {
		var xs coll.Value
		if c.Rank() == 0 {
			xs = append(algebra.Vec(nil), x...)
		} else {
			xs = algebra.Undef{}
		}
		xv := coll.Bcast(c, 0, xs).(algebra.Vec)
		block := rowBlocks[c.Rank()]
		local := block.MulVec(xv)
		c.Compute(float64(2 * block.R * block.C))
		gathered := coll.Gather(c, 0, local)
		if c.Rank() == 0 {
			out := make(algebra.Vec, 0, a.R)
			for _, g := range gathered {
				out = append(out, g.(algebra.Vec)...)
			}
			result = out
		}
	})
	return result, res
}
