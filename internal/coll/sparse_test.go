package coll

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/machine"
	"repro/internal/term"
)

// sparseSizes covers powers of two and awkward sizes alike.
var sparseSizes = []int{1, 2, 3, 4, 5, 7, 8, 11, 16}

func TestHaloExchangeConformsToEval(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	hoods := [][]int{
		{-1, 1},       // ring halo
		{1},           // shift
		{0},           // self only: no messages
		{-1, -1, 2},   // duplicates
		{3, -3},       // collides mod p for small p
		{0, 1, 0, -1}, // zeros interleaved
	}
	for _, n := range sparseSizes {
		for _, offs := range hoods {
			m := 1 + rng.Intn(3)
			blocks := randBlocks(rng, n, m)
			in := make([]algebra.Value, n)
			for i := range in {
				in[i] = blocks[i]
			}
			want := term.Eval(term.Halo{H: &term.Hood{Offsets: offs}}, in)
			out, _ := runSPMD(n, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
				return HaloExchange(pr, offs, blocks[pr.Rank()])
			})
			for r, v := range out {
				if !algebra.Equal(v, want[r]) {
					t.Fatalf("p=%d offsets=%v: halo proc %d = %v, want %v", n, offs, r, v, want[r])
				}
			}
		}
	}
}

func TestHaloExchangeListsConformsToEval(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for _, n := range []int{1, 2, 3, 4, 6, 8} {
		// Random per-rank source lists, including self-edges and repeats.
		lists := make([][]int, n)
		for i := range lists {
			k := rng.Intn(3) + 1
			lists[i] = make([]int, k)
			for j := range lists[i] {
				lists[i][j] = rng.Intn(n)
			}
		}
		blocks := randBlocks(rng, n, 2)
		in := make([]algebra.Value, n)
		for i := range in {
			in[i] = blocks[i]
		}
		want := term.Eval(term.Halo{H: &term.Hood{Lists: lists}}, in)
		out, _ := runSPMD(n, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
			return HaloExchangeLists(pr, lists, blocks[pr.Rank()])
		})
		for r, v := range out {
			if !algebra.Equal(v, want[r]) {
				t.Fatalf("p=%d lists=%v: proc %d = %v, want %v", n, lists, r, v, want[r])
			}
		}
	}
}

// testCounts enumerates the block-vector shapes the acceptance criteria
// name: ragged, with zero-length blocks, and maximally skewed (one rank
// owns everything).
func testCounts(rng *rand.Rand, n int) [][]int {
	ragged := make([]int, n)
	for i := range ragged {
		ragged[i] = 1 + rng.Intn(3)
	}
	zeros := make([]int, n)
	for i := range zeros {
		zeros[i] = rng.Intn(3) // zero-length blocks likely
	}
	skew := make([]int, n)
	skew[rng.Intn(n)] = 5
	allZero := make([]int, n)
	return [][]int{ragged, zeros, skew, allZero}
}

func TestAllGatherVConformsToEval(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	for _, n := range sparseSizes {
		for _, counts := range testCounts(rng, n) {
			in := make([]algebra.Value, n)
			for i := range in {
				v := make(algebra.Vec, counts[i])
				for j := range v {
					v[j] = float64(rng.Intn(19) - 9)
				}
				in[i] = v
			}
			want := term.Eval(term.AllGatherV{Counts: counts}, in)
			out, _ := runSPMD(n, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
				return AllGatherV(pr, counts, in[pr.Rank()])
			})
			for r, v := range out {
				if !algebra.Equal(v, want[r]) {
					t.Fatalf("p=%d counts=%v: allgatherv proc %d = %v, want %v", n, counts, r, v, want[r])
				}
			}
		}
	}
}

func TestReduceScatterVConformsToEval(t *testing.T) {
	rng := rand.New(rand.NewSource(404))
	for _, op := range []*algebra.Op{algebra.Add, algebra.Max, algebra.Left} {
		for _, n := range sparseSizes {
			for _, counts := range testCounts(rng, n) {
				total := term.SumCounts(counts)
				in := make([]algebra.Value, n)
				for i := range in {
					v := make(algebra.Vec, total)
					for j := range v {
						v[j] = float64(rng.Intn(19) - 9)
					}
					in[i] = v
				}
				want := term.Eval(term.ReduceScatterV{Op: op, Counts: counts}, in)
				out, _ := runSPMD(n, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
					return ReduceScatterV(pr, op, counts, in[pr.Rank()])
				})
				for r, v := range out {
					if !algebra.Equal(v, want[r]) {
						t.Fatalf("p=%d op=%s counts=%v: proc %d = %v, want %v", n, op.Name, counts, r, v, want[r])
					}
				}
			}
		}
	}
}

// TestReduceScatterVThenAllGatherVMatchesAllReduce pins the semantic
// core of the RSAG-AllReduce rewrite at the collective level: slicing
// the rank-ordered combine and regathering it is bitwise the allreduce.
func TestReduceScatterVThenAllGatherVMatchesAllReduce(t *testing.T) {
	rng := rand.New(rand.NewSource(405))
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		counts := testCounts(rng, n)[0]
		total := term.SumCounts(counts)
		in := make([]algebra.Vec, n)
		for i := range in {
			in[i] = make(algebra.Vec, total)
			for j := range in[i] {
				in[i][j] = float64(rng.Intn(19) - 9)
			}
		}
		fused, _ := runSPMD(n, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
			return AllReduce(pr, algebra.Add, in[pr.Rank()].Clone())
		})
		pair, _ := runSPMD(n, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
			mid := ReduceScatterV(pr, algebra.Add, counts, in[pr.Rank()])
			return AllGatherV(pr, counts, mid)
		})
		for r := range pair {
			if !algebra.Equal(pair[r], fused[r]) {
				t.Fatalf("p=%d counts=%v proc %d: pair %v, allreduce %v", n, counts, r, pair[r], fused[r])
			}
		}
	}
}

func TestSparseCollectivesPanicOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("allgatherv accepted a wrong-length block")
		}
	}()
	runSPMD(2, machine.Params{}, func(pr Comm) Value {
		return AllGatherV(pr, []int{1, 1}, make(algebra.Vec, 3))
	})
}

// TestHaloPastTheStackBookkeeping: a neighborhood naming more distinct
// peers than stackPeers moves its bookkeeping to the heap and still
// delivers term.Eval's tuple, duplicates and self-edges included.
func TestHaloPastTheStackBookkeeping(t *testing.T) {
	const n = stackPeers + 3
	var offsets []int
	for o := n + 1; o >= -2; o-- { // every delta mod n, most of them twice
		offsets = append(offsets, o, -o)
	}
	lists := make([][]int, n)
	for i := range lists {
		for src := n - 1; src >= 0; src-- {
			lists[i] = append(lists[i], src, (src*7+i)%n)
		}
	}
	blocks := randBlocks(rand.New(rand.NewSource(408)), n, 2)
	in := make([]algebra.Value, n)
	for i := range in {
		in[i] = blocks[i]
	}
	for _, c := range []struct {
		name string
		hood *term.Hood
		run  func(Comm) Value
	}{
		{"offsets", &term.Hood{Offsets: offsets}, func(c Comm) Value { return HaloExchange(c, offsets, in[c.Rank()]) }},
		{"lists", &term.Hood{Lists: lists}, func(c Comm) Value { return HaloExchangeLists(c, lists, in[c.Rank()]) }},
	} {
		want := term.Eval(term.Halo{H: c.hood}, in)
		out, _ := runSPMD(n, machine.Params{Ts: 4, Tw: 1}, c.run)
		for r, v := range out {
			if !algebra.Equal(v, want[r]) {
				t.Fatalf("%s at p=%d: proc %d = %v, want %v", c.name, n, r, v, want[r])
			}
		}
	}
}

// TestWarmSparseCollectivesAllocs pins what a sparse collective costs a
// warm rank beyond the run itself: nothing. Their bookkeeping is on the
// stack, a halo's result tuple is a pre-boxed arena header, and every
// block they send or return is arena scratch or a value they were handed.
func TestWarmSparseCollectivesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const p = 8
	nm := backend.New(p)
	blocks := randBlocks(rand.New(rand.NewSource(409)), p, 4)
	counts := []int{2, 0, 3, 1, 0, 0, 5, 1} // ragged; ranks 1, 4 and 5 own an empty block
	total := term.SumCounts(counts)
	full := randBlocks(rand.New(rand.NewSource(410)), p, total)
	own := make([]algebra.Value, p)
	for r := range own {
		own[r] = full[r][:counts[r]]
	}
	ring, mixed := []int{-1, 1}, []int{0, 1, 1 + p, -1}
	lists := make([][]int, p)
	for r := range lists {
		lists[r] = []int{(r + 1) % p, r, (r + 1) % p, (r + 3) % p}
	}
	inputs := func(vs []algebra.Vec) []algebra.Value {
		out := make([]algebra.Value, len(vs))
		for r, v := range vs {
			out[r] = v
		}
		return out
	}
	in, fullIn := inputs(blocks), inputs(full)
	perRun := func(body func(*backend.Proc)) float64 {
		nm.Run(body) // grows the arena and the mailboxes
		return testing.AllocsPerRun(100, func() { nm.Run(body) })
	}
	base := perRun(func(*backend.Proc) {})
	for _, c := range []struct {
		name string
		body func(*backend.Proc)
	}{
		{"halo(-1,1)", func(pr *backend.Proc) { HaloExchange(pr, ring, in[pr.Rank()]) }},
		{"halo(0,1,1+p,-1)", func(pr *backend.Proc) { HaloExchange(pr, mixed, in[pr.Rank()]) }},
		{"halo lists", func(pr *backend.Proc) { HaloExchangeLists(pr, lists, in[pr.Rank()]) }},
		{"allgatherv", func(pr *backend.Proc) { AllGatherV(pr, counts, own[pr.Rank()]) }},
		{"reduce_scatterv", func(pr *backend.Proc) { ReduceScatterV(pr, algebra.Add, counts, fullIn[pr.Rank()]) }},
		{"reduce_scatterv ; allgatherv", func(pr *backend.Proc) {
			AllGatherV(pr, counts, ReduceScatterV(pr, algebra.Add, counts, fullIn[pr.Rank()]))
		}},
	} {
		if got := perRun(c.body) - base; got != 0 {
			t.Errorf("%s at p=%d: %.0f allocs per run beyond an empty one, want 0", c.name, p, got)
		}
	}
}
