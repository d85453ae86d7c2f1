// Sparse-collective conformance across real process boundaries: halo
// exchanges and the irregular V-collectives run through the "program"
// body (re-executed worker processes, JSON wire) and must agree bitwise
// with the native backend and, modulo undetermined positions, with the
// functional semantics — including zero-length and maximally-skewed
// counts.
package mpbackend_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/apps"
	"repro/internal/backend"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/mpbackend"
	"repro/internal/rules"
	"repro/internal/term"
)

// TestSparseProgramsConform drives the sparse surface syntax through the
// multi-process backend on power-of-two and non-power-of-two machines.
// Counts vectors pin the machine size, so each program carries its own
// size list.
func TestSparseProgramsConform(t *testing.T) {
	type tc struct {
		src   string
		sizes []int
	}
	cases := []tc{
		{"halo(-1,1)", []int{1, 2, 3, 4, 5, 8}},
		{"halo(1,2) ; halo(0,3)", []int{2, 4, 5}},
		{"halo(0,1,0,-1) ; map inc_t", []int{3, 4}},
		{"allgatherv(2,0,3)", []int{3}},
		{"allgatherv(0,5,0,0)", []int{4}},
		{"allgatherv(0,0,0)", []int{3}},
		{"reduce_scatterv(+,2,0,3)", []int{3}},
		{"reduce_scatterv(max,1,0,2,1) ; allgatherv(1,0,2,1)", []int{4}},
		{"reduce_scatterv(+,1,2,0,1,0,3) ; allgatherv(1,2,0,1,0,3)", []int{6}},
	}
	if testing.Short() {
		cases = cases[:6]
	}
	for _, c := range cases {
		for _, p := range c.sizes {
			t.Run(fmt.Sprintf("p=%d/%s", p, c.src), func(t *testing.T) {
				syms := lang.NewSymbols()
				syms.DefineFn(rules.IncFn)
				syms.DefineFn(rules.IncTupFn)
				parsed, err := lang.Parse(c.src, syms)
				if err != nil {
					t.Fatal(err)
				}
				prog := term.Compose(parsed)
				const m = 4
				in := mpbackend.ConformanceInputs(prog, p, m)
				want, _ := core.FromTerm(prog).RunNative(p, in)
				sem := term.Eval(prog, in)
				got := mpResults(t, c.src, p, m)
				for r := 0; r < p; r++ {
					if !algebra.Equal(want[r], got[r]) {
						t.Fatalf("rank %d: multiproc %v, native %v", r, got[r], want[r])
					}
					if !algebra.EqualModuloUndef(got[r], sem[r]) {
						t.Fatalf("rank %d: multiproc %v, semantics %v", r, got[r], sem[r])
					}
				}
			})
		}
	}
}

// sparseAppParams parameterizes the registered sparse-application body:
// the workers rebuild the deterministic inputs from the seed, so only
// the shape crosses the wire.
type sparseAppParams struct {
	App  string `json:"app"`
	Seed int64  `json:"seed"`
	Pr   int    `json:"pr,omitempty"`
	Pc   int    `json:"pc,omitempty"`
}

// sparseAppInputs derives the application inputs from the seed — the
// coordinator-side reference and the re-executed workers call the same
// function, so both sides agree without shipping the data.
func sparseAppGrid(seed int64, rows, cols int) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	g := make([][]float64, rows)
	for i := range g {
		g[i] = make([]float64, cols)
		for j := range g[i] {
			g[i][j] = float64(rng.Intn(19) - 9)
		}
	}
	return g
}

func sparseAppRagged(seed int64, p int) (counts []int, flags []bool, values []float64) {
	rng := rand.New(rand.NewSource(seed))
	counts = make([]int, p)
	total := 0
	for i := range counts {
		counts[i] = rng.Intn(4)
		total += counts[i]
	}
	if total == 0 {
		counts[0] = 3
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

func sparseAppGraph(seed int64, p int) (n int, edges [][2]int, counts []int) {
	rng := rand.New(rand.NewSource(seed))
	n = 12
	edges = make([][2]int, 3*n)
	for i := range edges {
		edges[i] = [2]int{rng.Intn(n), rng.Intn(n)}
	}
	counts = make([]int, p)
	left := n
	for i := 0; i < p-1; i++ {
		counts[i] = rng.Intn(left + 1)
		left -= counts[i]
	}
	counts[p-1] = left
	return n, edges, counts
}

// sparseAppRank runs one application's rank body on any communicator —
// the shared SPMD core of the native reference and the worker body.
func sparseAppRank(c coll.Comm, ps sparseAppParams) algebra.Vec {
	switch ps.App {
	case "stencil":
		tiles := tileForMP(sparseAppGrid(ps.Seed, 4*ps.Pr, 3*ps.Pc), ps.Pr, ps.Pc)
		tile := apps.StencilRank(c, tiles[c.Rank()], ps.Pr, ps.Pc, 2)
		flat := make(algebra.Vec, 0, len(tile)*len(tile[0]))
		for _, row := range tile {
			flat = append(flat, row...)
		}
		return flat
	case "raggedscan":
		counts, flags, values := sparseAppRagged(ps.Seed, c.Size())
		off := 0
		for r := 0; r < c.Rank(); r++ {
			off += counts[r]
		}
		fb := flags[off : off+counts[c.Rank()]]
		vb := values[off : off+counts[c.Rank()]]
		return apps.RaggedSegScanRank(c, counts, fb, vb)
	case "degreehist":
		n, edges, counts := sparseAppGraph(ps.Seed, c.Size())
		per := len(edges) / c.Size()
		lo := c.Rank() * per
		hi := lo + per
		if c.Rank() == c.Size()-1 {
			hi = len(edges)
		}
		return apps.DegreeHistRank(c, n, counts, edges[lo:hi], 5)
	}
	panic(fmt.Sprintf("unknown sparse app %q", ps.App))
}

// tileForMP cuts the grid into pr×pc equal tiles in rank order
// (mirrors the apps-internal tiler for the worker side).
func tileForMP(grid [][]float64, pr, pc int) [][][]float64 {
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

func init() {
	mpbackend.Register("test-sparse-app", func(p *mpbackend.Proc, raw json.RawMessage) (any, error) {
		var ps sparseAppParams
		if err := json.Unmarshal(raw, &ps); err != nil {
			return nil, err
		}
		out := sparseAppRank(p, ps)
		return []float64(out), nil
	})
}

// TestSparseAppsAcrossProcesses runs the stencil, ragged segmented
// scan, and degree histogram rank bodies in real worker processes and
// compares every rank's result bitwise against the native backend
// running the identical body.
func TestSparseAppsAcrossProcesses(t *testing.T) {
	cases := []sparseAppParams{
		{App: "stencil", Seed: 601, Pr: 2, Pc: 2},
		{App: "stencil", Seed: 602, Pr: 3, Pc: 1},
		{App: "raggedscan", Seed: 603},
		{App: "degreehist", Seed: 604},
	}
	for _, ps := range cases {
		p := 4
		if ps.App == "stencil" {
			p = ps.Pr * ps.Pc
		}
		t.Run(fmt.Sprintf("%s/p=%d", ps.App, p), func(t *testing.T) {
			want := make([]algebra.Vec, p)
			backend.New(p).Run(func(pr *backend.Proc) {
				want[pr.Rank()] = append(algebra.Vec(nil), sparseAppRank(pr, ps)...)
			})
			res, err := mpbackend.Run("test-sparse-app", p, ps, mpbackend.Options{})
			if err != nil {
				t.Fatal(err)
			}
			lists, err := mpbackend.Decode[[]float64](res)
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < p; r++ {
				if len(lists[r]) != len(want[r]) {
					t.Fatalf("rank %d returned %d words, want %d", r, len(lists[r]), len(want[r]))
				}
				for i := range want[r] {
					if lists[r][i] != float64(want[r][i]) {
						t.Fatalf("rank %d word %d: multiproc %g, native %g", r, i, lists[r][i], want[r][i])
					}
				}
			}
		})
	}
}
