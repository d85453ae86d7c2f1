package apps

import (
	"fmt"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/machine"
)

// This file implements the sparse and irregular applications: a 2D
// stencil iteration on a periodic torus (halo exchange over row/column
// sub-communicators), a segmented scan over ragged per-rank blocks
// (delivered with allgatherv), and a graph-degree histogram
// (reduce_scatterv over a ragged vertex partition). The SPMD bodies are
// written against the generic coll.Comm, so the tests run them
// unchanged on the virtual and native backends, and the multi-process
// conformance suite registers them as worker bodies.

// Stencil2D runs iters steps of the 5-point periodic stencil
//
//	next[i][j] = (cur[i][j] + up + down + left + right) / 5
//
// on an R×C torus distributed over a pr×pc process grid (mach.P must
// equal pr·pc, and R, C must divide evenly). Each step exchanges the
// boundary rows and columns with the four torus neighbors via halo
// exchanges on the row and column sub-communicators.
func Stencil2D(mach Machine, grid [][]float64, pr, pc, iters int) ([][]float64, machine.Result) {
	if mach.P != pr*pc {
		panic(fmt.Sprintf("apps: stencil on %d ranks with a %d×%d process grid", mach.P, pr, pc))
	}
	rows, cols := len(grid), len(grid[0])
	if rows%pr != 0 || cols%pc != 0 {
		panic(fmt.Sprintf("apps: %d×%d grid does not tile over %d×%d processes", rows, cols, pr, pc))
	}
	tiles := tileGrid(grid, pr, pc)
	out := make([][][]float64, mach.P)
	res := mach.virtual().Run(func(c *machine.Proc) {
		out[c.Rank()] = StencilRank(c, tiles[c.Rank()], pr, pc, iters)
	})
	return untileGrid(out, pr, pc, rows, cols), res
}

// StencilRank is the per-rank stencil body: rank r owns tile (r/pc,
// r%pc) of the process grid and returns its tile after iters steps.
func StencilRank(c coll.Comm, tile [][]float64, pr, pc, iters int) [][]float64 {
	ri, ci := c.Rank()/pc, c.Rank()%pc
	rowComm := coll.Split(c, ri, ci) // left/right neighbors: same grid row
	colComm := coll.Split(c, ci, ri) // up/down neighbors: same grid column
	rows, cols := len(tile), len(tile[0])
	cur := make([][]float64, rows)
	for i := range cur {
		cur[i] = append([]float64(nil), tile[i]...)
	}
	for it := 0; it < iters; it++ {
		// Ship both boundary columns (rows) as a pair; each neighbor
		// picks the side facing it, so one halo exchange per axis serves
		// both directions — including the p=1 wrap onto ourselves.
		colPair := algebra.Tuple{colVec(cur, 0), colVec(cur, cols-1)}
		lr := coll.HaloExchange(rowComm, []int{-1, 1}, colPair).(algebra.Tuple)
		left := lr[0].(algebra.Tuple)[1].(algebra.Vec)  // left neighbor's rightmost column
		right := lr[1].(algebra.Tuple)[0].(algebra.Vec) // right neighbor's leftmost column
		rowPair := algebra.Tuple{algebra.Vec(cur[0]), algebra.Vec(cur[rows-1])}
		ud := coll.HaloExchange(colComm, []int{-1, 1}, rowPair).(algebra.Tuple)
		up := ud[0].(algebra.Tuple)[1].(algebra.Vec)   // upper neighbor's bottom row
		down := ud[1].(algebra.Tuple)[0].(algebra.Vec) // lower neighbor's top row

		next := make([][]float64, rows)
		for i := range next {
			next[i] = make([]float64, cols)
			for j := range next[i] {
				u, d, l, r := 0.0, 0.0, 0.0, 0.0
				if i > 0 {
					u = cur[i-1][j]
				} else {
					u = up[j]
				}
				if i < rows-1 {
					d = cur[i+1][j]
				} else {
					d = down[j]
				}
				if j > 0 {
					l = cur[i][j-1]
				} else {
					l = left[i]
				}
				if j < cols-1 {
					r = cur[i][j+1]
				} else {
					r = right[i]
				}
				next[i][j] = (cur[i][j] + u + d + l + r) / 5
			}
		}
		c.Compute(float64(5 * rows * cols))
		cur = next
	}
	return cur
}

// SeqStencil2D is the sequential reference, applying the identical
// update expression so the parallel result is bitwise-equal.
func SeqStencil2D(grid [][]float64, iters int) [][]float64 {
	rows, cols := len(grid), len(grid[0])
	cur := make([][]float64, rows)
	for i := range cur {
		cur[i] = append([]float64(nil), grid[i]...)
	}
	for it := 0; it < iters; it++ {
		next := make([][]float64, rows)
		for i := range next {
			next[i] = make([]float64, cols)
			for j := range next[i] {
				u := cur[(i-1+rows)%rows][j]
				d := cur[(i+1)%rows][j]
				l := cur[i][(j-1+cols)%cols]
				r := cur[i][(j+1)%cols]
				next[i][j] = (cur[i][j] + u + d + l + r) / 5
			}
		}
		cur = next
	}
	return cur
}

func colVec(tile [][]float64, j int) algebra.Vec {
	v := make(algebra.Vec, len(tile))
	for i := range tile {
		v[i] = tile[i][j]
	}
	return v
}

// tileGrid cuts grid into pr×pc equal tiles in rank order.
func tileGrid(grid [][]float64, pr, pc int) [][][]float64 {
	rows, cols := len(grid), len(grid[0])
	tr, tc := rows/pr, cols/pc
	tiles := make([][][]float64, pr*pc)
	for ri := 0; ri < pr; ri++ {
		for ci := 0; ci < pc; ci++ {
			tile := make([][]float64, tr)
			for i := range tile {
				tile[i] = append([]float64(nil), grid[ri*tr+i][ci*tc:ci*tc+tc]...)
			}
			tiles[ri*pc+ci] = tile
		}
	}
	return tiles
}

// untileGrid reassembles the per-rank tiles into the full grid.
func untileGrid(tiles [][][]float64, pr, pc, rows, cols int) [][]float64 {
	tr, tc := rows/pr, cols/pc
	grid := make([][]float64, rows)
	for i := range grid {
		grid[i] = make([]float64, cols)
	}
	for ri := 0; ri < pr; ri++ {
		for ci := 0; ci < pc; ci++ {
			tile := tiles[ri*pc+ci]
			for i := 0; i < tr; i++ {
				copy(grid[ri*tr+i][ci*tc:ci*tc+tc], tile[i])
			}
		}
	}
	return grid
}

// RaggedSegmentedScan is SegmentedScan over an explicitly ragged
// partition: rank i owns counts[i] consecutive elements (zero-length
// blocks allowed), and the full result vector is delivered to every
// rank with one allgatherv — the irregular-block collective doing the
// final redistribution a dense allgather cannot express.
func RaggedSegmentedScan(mach Machine, counts []int, flags []bool, values []float64) ([]float64, machine.Result) {
	if len(counts) != mach.P {
		panic(fmt.Sprintf("apps: %d counts on %d ranks", len(counts), mach.P))
	}
	if len(flags) != len(values) {
		panic(fmt.Sprintf("apps: %d flags for %d values", len(flags), len(values)))
	}
	total := 0
	for _, cnt := range counts {
		if cnt < 0 {
			panic("apps: negative count")
		}
		total += cnt
	}
	if total != len(values) {
		panic(fmt.Sprintf("apps: counts sum to %d, have %d values", total, len(values)))
	}
	out := make([][]float64, mach.P)
	res := mach.virtual().Run(func(c *machine.Proc) {
		off := 0
		for r := 0; r < c.Rank(); r++ {
			off += counts[r]
		}
		fb := flags[off : off+counts[c.Rank()]]
		vb := values[off : off+counts[c.Rank()]]
		full := RaggedSegScanRank(c, counts, fb, vb)
		out[c.Rank()] = append([]float64(nil), full...)
	})
	return out[0], res
}

// RaggedSegScanRank is the per-rank body: local segmented scan, one
// scan of the (flag, value) block summaries for the carries, and an
// allgatherv of the ragged local results. Every rank returns the full
// result vector.
func RaggedSegScanRank(c coll.Comm, counts []int, fb []bool, vb []float64) algebra.Vec {
	return coll.AllGatherV(c, counts, segScanRank(c, fb, vb)).(algebra.Vec)
}

// DegreeHistogram computes the degree histogram of an n-vertex graph
// whose edge list is split evenly across the ranks: every rank counts
// endpoint hits into a full n-word vector, one reduce_scatterv(+) over
// the ragged vertex partition leaves each rank the true degrees of its
// owned vertices, and an allreduce of the per-rank bin counts yields
// the global histogram. Degrees ≥ bins clamp into the last bin.
func DegreeHistogram(mach Machine, n int, edges [][2]int, counts []int, bins int) ([]int, machine.Result) {
	if len(counts) != mach.P {
		panic(fmt.Sprintf("apps: %d counts on %d ranks", len(counts), mach.P))
	}
	total := 0
	for _, cnt := range counts {
		total += cnt
	}
	if total != n {
		panic(fmt.Sprintf("apps: vertex partition covers %d of %d vertices", total, n))
	}
	if bins < 1 {
		panic("apps: degree histogram needs at least one bin")
	}
	eblocks := chunk(edges, mach.P)
	out := make([][]int, mach.P)
	res := mach.virtual().Run(func(c *machine.Proc) {
		hist := DegreeHistRank(c, n, counts, eblocks[c.Rank()], bins)
		bucket := make([]int, bins)
		for i, v := range hist {
			bucket[i] = int(v)
		}
		out[c.Rank()] = bucket
	})
	return out[0], res
}

// DegreeHistRank is the per-rank body; every rank returns the full
// bins-word histogram.
func DegreeHistRank(c coll.Comm, n int, counts []int, edges [][2]int, bins int) algebra.Vec {
	contrib := make(algebra.Vec, n)
	for _, e := range edges {
		contrib[e[0]]++
		contrib[e[1]]++
	}
	c.Compute(float64(2 * len(edges)))
	owned := coll.ReduceScatterV(c, algebra.Add, counts, contrib).(algebra.Vec)
	hist := make(algebra.Vec, bins)
	for _, d := range owned {
		b := int(d)
		if b >= bins {
			b = bins - 1
		}
		hist[b]++
	}
	c.Compute(float64(len(owned)))
	return coll.AllReduce(c, algebra.Add, hist).(algebra.Vec)
}

// SeqDegreeHistogram is the sequential reference.
func SeqDegreeHistogram(n int, edges [][2]int, bins int) []int {
	deg := make([]int, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	hist := make([]int, bins)
	for _, d := range deg {
		if d >= bins {
			d = bins - 1
		}
		hist[d]++
	}
	return hist
}
