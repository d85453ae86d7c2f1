package apps

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
)

// nativeRanks runs the SPMD body on the native backend and returns
// nothing — the body stores its own results.
func nativeRanks(p int, body func(c coll.Comm)) {
	backend.New(p).Run(func(pr *backend.Proc) { body(pr) })
}

func randGrid(rng *rand.Rand, rows, cols int) [][]float64 {
	g := make([][]float64, rows)
	for i := range g {
		g[i] = make([]float64, cols)
		for j := range g[i] {
			g[i][j] = float64(rng.Intn(19) - 9)
		}
	}
	return g
}

func gridsEqual(a, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestStencil2DMatchesSequential runs the torus stencil over several
// process-grid shapes — including single rows, single columns, and
// non-power-of-two grids — and demands bitwise equality with the
// sequential reference.
func TestStencil2DMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(501))
	shapes := []struct{ pr, pc int }{
		{1, 1}, {2, 1}, {1, 2}, {2, 2}, {3, 1}, {2, 3}, {4, 2},
	}
	for _, sh := range shapes {
		grid := randGrid(rng, 6*sh.pr, 4*sh.pc)
		want := SeqStencil2D(grid, 3)
		mach := Machine{P: sh.pr * sh.pc, Ts: 10, Tw: 1}
		got, res := Stencil2D(mach, grid, sh.pr, sh.pc, 3)
		if !gridsEqual(got, want) {
			t.Fatalf("%d×%d grid: virtual stencil diverged from sequential", sh.pr, sh.pc)
		}
		if res.Makespan <= 0 {
			t.Fatalf("%d×%d grid: no cost charged", sh.pr, sh.pc)
		}
	}
}

// TestStencilRankOnNative runs the identical rank body on the native
// backend: real channel transfers, no cost model, same bits.
func TestStencilRankOnNative(t *testing.T) {
	rng := rand.New(rand.NewSource(502))
	for _, sh := range []struct{ pr, pc int }{{2, 2}, {3, 2}, {1, 3}} {
		p := sh.pr * sh.pc
		grid := randGrid(rng, 4*sh.pr, 3*sh.pc)
		want := SeqStencil2D(grid, 2)
		tiles := tileGrid(grid, sh.pr, sh.pc)
		out := make([][][]float64, p)
		nativeRanks(p, func(c coll.Comm) {
			out[c.Rank()] = StencilRank(c, tiles[c.Rank()], sh.pr, sh.pc, 2)
		})
		got := untileGrid(out, sh.pr, sh.pc, len(grid), len(grid[0]))
		if !gridsEqual(got, want) {
			t.Fatalf("%d×%d native stencil diverged from sequential", sh.pr, sh.pc)
		}
	}
}

// raggedCase builds a ragged partition with zero-length blocks and the
// matching flags/values.
func raggedCase(rng *rand.Rand, p int) (counts []int, flags []bool, values []float64) {
	counts = make([]int, p)
	total := 0
	for i := range counts {
		counts[i] = rng.Intn(5) // zeros happen often
		total += counts[i]
	}
	if total == 0 {
		counts[rng.Intn(p)] = 3
		total = 3
	}
	flags = make([]bool, total)
	values = make([]float64, total)
	for i := range values {
		flags[i] = rng.Intn(4) == 0
		values[i] = float64(rng.Intn(19) - 9)
	}
	return counts, flags, values
}

func TestRaggedSegmentedScanMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(503))
	for trial := 0; trial < 30; trial++ {
		for _, p := range []int{1, 2, 3, 4, 5, 8} {
			counts, flags, values := raggedCase(rng, p)
			want := SeqSegmentedScan(flags, values)
			mach := Machine{P: p, Ts: 10, Tw: 1}
			got, _ := RaggedSegmentedScan(mach, counts, flags, values)
			if len(got) != len(want) {
				t.Fatalf("p=%d: %d results for %d values", p, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%d counts=%v: result[%d] = %g, want %g", p, counts, i, got[i], want[i])
				}
			}
		}
	}
}

// TestRaggedSegScanRankOnNative also pins that every rank — including
// zero-count ones — receives the identical full result vector.
func TestRaggedSegScanRankOnNative(t *testing.T) {
	rng := rand.New(rand.NewSource(504))
	for trial := 0; trial < 10; trial++ {
		p := 2 + rng.Intn(5)
		counts, flags, values := raggedCase(rng, p)
		want := SeqSegmentedScan(flags, values)
		displs := make([]int, p+1)
		for i, cnt := range counts {
			displs[i+1] = displs[i] + cnt
		}
		out := make([]algebra.Vec, p)
		nativeRanks(p, func(c coll.Comm) {
			r := c.Rank()
			full := RaggedSegScanRank(c, counts, flags[displs[r]:displs[r+1]], values[displs[r]:displs[r+1]])
			out[r] = append(algebra.Vec(nil), full...)
		})
		for r := 0; r < p; r++ {
			if len(out[r]) != len(want) {
				t.Fatalf("rank %d got %d of %d results", r, len(out[r]), len(want))
			}
			for i := range want {
				if out[r][i] != want[i] {
					t.Fatalf("rank %d result[%d] = %g, want %g (counts %v)", r, i, out[r][i], want[i], counts)
				}
			}
		}
	}
}

// randEdges draws a random multigraph edge list over n vertices.
func randEdges(rng *rand.Rand, n, e int) [][2]int {
	edges := make([][2]int, e)
	for i := range edges {
		edges[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	return edges
}

// raggedPartition splits n vertices over p ranks with skew and zeros.
func raggedPartition(rng *rand.Rand, n, p int) []int {
	counts := make([]int, p)
	left := n
	for i := 0; i < p-1; i++ {
		counts[i] = rng.Intn(left + 1)
		left -= counts[i]
	}
	counts[p-1] = left
	return counts
}

func TestDegreeHistogramMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for trial := 0; trial < 20; trial++ {
		for _, p := range []int{1, 2, 3, 4, 6} {
			n := 8 + rng.Intn(17)
			edges := randEdges(rng, n, 3*n)
			counts := raggedPartition(rng, n, p)
			const bins = 6
			want := SeqDegreeHistogram(n, edges, bins)
			mach := Machine{P: p, Ts: 10, Tw: 1}
			got, _ := DegreeHistogram(mach, n, edges, counts, bins)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("p=%d counts=%v: bin %d = %d, want %d", p, counts, i, got[i], want[i])
				}
			}
		}
	}
}

func TestDegreeHistRankOnNative(t *testing.T) {
	rng := rand.New(rand.NewSource(506))
	for trial := 0; trial < 10; trial++ {
		p := 2 + rng.Intn(4)
		n := 10 + rng.Intn(10)
		edges := randEdges(rng, n, 2*n)
		counts := raggedPartition(rng, n, p)
		const bins = 5
		want := SeqDegreeHistogram(n, edges, bins)
		eblocks := chunk(edges, p)
		out := make([]algebra.Vec, p)
		nativeRanks(p, func(c coll.Comm) {
			hist := DegreeHistRank(c, n, counts, eblocks[c.Rank()], bins)
			out[c.Rank()] = append(algebra.Vec(nil), hist...)
		})
		for r := 0; r < p; r++ {
			for i := range want {
				if int(out[r][i]) != want[i] {
					t.Fatalf("rank %d bin %d = %g, want %d (counts %v)", r, i, out[r][i], want[i], counts)
				}
			}
		}
	}
}
