package coll

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/cost"
	"repro/internal/machine"
)

// What a portfolio schedule computes, for the checks.
const (
	allReduced  = iota // every rank: the reduction of the whole block
	rootReduced        // rank 0: the reduction; every other rank: its own block
	scattered          // rank r: the reduction of its own chunk, the chunks partitioning the block
)

// portfolioGenerators are every generator with what it computes, the
// words per member it needs and the algorithm whose cost.Admits rule its
// combining order must agree with (reduce-scatter is the ring's first
// half).
var portfolioGenerators = []struct {
	name  string
	gen   generator
	algo  cost.Algo
	kind  int
	need  int
	parts []int
}{
	{"rabenseifner", rabenseifner, cost.AlgoRabenseifner, allReduced, 1, []int{0}},
	{"ring", ring, cost.AlgoRing, allReduced, 1, []int{0}},
	{"ring-bi", ringBi, cost.AlgoRingBi, allReduced, 2, []int{0}},
	{"pipeline", pipeline, cost.AlgoPipeline, rootReduced, 0, []int{0, 1, 2, 3, 7, 1000}},
	{"reduce-scatter", reduceScatter, cost.AlgoRing, scattered, 1, []int{0}},
}

// contribution is what one word holds in the symbolic run of a schedule:
// the ranks whose inputs it combines, and whether it combines them in rank
// order — x_first ⊕ x_first+1 ⊕ … ⊕ x_last.
type contribution struct {
	ranks       uint64
	first, last int
	ordered     bool
}

// then is a ⊕ b, or false when either is empty or they share a rank.
func (a contribution) then(b contribution) (contribution, bool) {
	if a.ranks == 0 || b.ranks == 0 || a.ranks&b.ranks != 0 {
		return contribution{}, false
	}
	return contribution{a.ranks | b.ranks, a.first, b.last, a.ordered && b.ordered && a.last+1 == b.first}, true
}

// simRank is one rank of the symbolic run.
type simRank struct {
	s       schedule
	pc      int
	buf     [3][]contribution
	shipped [3][]bool
}

// get is the interpreter's frame.get over contributions.
func (r *simRank) get(b buffer, m int) []contribution {
	if r.buf[b] == nil {
		r.buf[b], r.shipped[b] = make([]contribution, m), make([]bool, m)
		if b == workBuf {
			copy(r.buf[b], r.get(inBuf, m))
		}
	}
	return r.buf[b]
}

// write checks that rank writes buf[lo:hi] before shipping any of it.
func (r *simRank) write(rank int, b buffer, lo, hi, m int) error {
	r.get(b, m)
	for j := lo; j < hi; j++ {
		if b == inBuf || r.shipped[b][j] {
			return fmt.Errorf("rank %d step %d writes buffer %d word %d after shipping it", rank, r.pc, b, j)
		}
	}
	return nil
}

// simulate runs every rank's schedule together on links that hold one
// message each, moving contributions instead of words. It fails when a
// receive's word count differs from the matching send's, when a rank
// writes a range it has shipped (or its input), when a combine would count
// a rank twice or combine nothing, when the ranks stop with steps left (a
// wait cycle) and when a message is never received. It returns the ranks
// as they finished.
func simulate(p, m int, scheds []schedule) ([]simRank, error) {
	ranks := make([]simRank, p)
	for r := range ranks {
		ranks[r].s = scheds[r]
		in := ranks[r].get(inBuf, m)
		for j := range in {
			in[j] = contribution{1 << r, r, r, true}
		}
	}
	slot := make([][]contribution, p*p) // slot[src*p+dst], nil when empty
	try := func(r int) (bool, error) {
		rk := &ranks[r]
		st := rk.s.steps[rk.pc]
		if st.lo < 0 || st.lo >= st.hi || st.hi > m || (st.act != doKeep && (st.peer < 0 || st.peer >= p || st.peer == r)) {
			return false, fmt.Errorf("rank %d step %d is malformed: %+v", r, rk.pc, st)
		}
		switch st.act {
		case doSend:
			link := r*p + st.peer
			if slot[link] != nil {
				return false, nil
			}
			slot[link] = append([]contribution(nil), rk.get(st.buf, m)[st.lo:st.hi]...)
			for j := st.lo; j < st.hi; j++ {
				rk.shipped[st.buf][j] = true
			}
		case doKeep:
			if err := rk.write(r, outBuf, st.lo, st.hi, m); err != nil {
				return false, err
			}
			copy(rk.get(outBuf, m)[st.lo:st.hi], rk.get(workBuf, m)[st.lo:st.hi])
		default:
			link := st.peer*p + r
			msg := slot[link]
			if msg == nil {
				return false, nil
			}
			slot[link] = nil
			if len(msg) != st.hi-st.lo {
				return false, fmt.Errorf("rank %d step %d receives %d words from rank %d, which sent %d", r, rk.pc, st.hi-st.lo, st.peer, len(msg))
			}
			if err := rk.write(r, st.buf, st.lo, st.hi, m); err != nil {
				return false, err
			}
			dst := rk.get(st.buf, m)[st.lo:st.hi]
			for j := range dst {
				var ok bool
				switch st.act {
				case doCopy:
					dst[j], ok = msg[j], msg[j].ranks != 0
				case doLeft:
					dst[j], ok = msg[j].then(dst[j])
				case doRight:
					dst[j], ok = dst[j].then(msg[j])
				}
				if !ok {
					return false, fmt.Errorf("rank %d step %d combines word %d with an empty or overlapping contribution", r, rk.pc, st.lo+j)
				}
			}
		}
		return true, nil
	}
	for progress := true; progress; {
		progress = false
		for r := range ranks {
			for ranks[r].pc < len(ranks[r].s.steps) {
				ok, err := try(r)
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				ranks[r].pc++
				progress = true
			}
		}
	}
	for r := range ranks {
		if pc := ranks[r].pc; pc < len(ranks[r].s.steps) {
			return nil, fmt.Errorf("rank %d waits forever at step %d of %d: %+v", r, pc, len(ranks[r].s.steps), ranks[r].s.steps[pc])
		}
	}
	for link, msg := range slot {
		if msg != nil {
			return nil, fmt.Errorf("rank %d's message to rank %d is never received", link/p, link%p)
		}
	}
	return ranks, nil
}

// checkResults checks what each rank returns against kind and reports
// whether every reduced word combines the ranks in rank order.
func checkResults(p, m, kind int, ranks []simRank) (ordered bool, err error) {
	all := uint64(1)<<p - 1
	if p == 64 {
		all = ^uint64(0)
	}
	ordered = true
	var ranges [][2]int
	for r := range ranks {
		s := ranks[r].s
		if s.lo < 0 || s.lo >= s.hi || s.hi > m {
			return false, fmt.Errorf("rank %d returns the malformed range [%d,%d)", r, s.lo, s.hi)
		}
		ranges = append(ranges, [2]int{s.lo, s.hi})
		want := all
		if kind == rootReduced && r > 0 {
			want = 1 << r
		}
		for j, c := range ranks[r].get(s.res, m)[s.lo:s.hi] {
			if c.ranks != want {
				return false, fmt.Errorf("rank %d result word %d combines ranks %b, want %b", r, s.lo+j, c.ranks, want)
			}
			ordered = ordered && c.ordered
		}
	}
	if kind != scattered {
		for r, rg := range ranges {
			if rg != [2]int{0, m} && (kind == allReduced || r == 0) {
				return false, fmt.Errorf("rank %d returns [%d,%d), want the whole block [0,%d)", r, rg[0], rg[1], m)
			}
		}
		return ordered, nil
	}
	sort.Slice(ranges, func(i, j int) bool { return ranges[i][0] < ranges[j][0] })
	at := 0
	for _, rg := range ranges {
		if rg[0] != at {
			return false, fmt.Errorf("the result ranges %v do not partition [0,%d)", ranges, m)
		}
		at = rg[1]
	}
	if at != m {
		return false, fmt.Errorf("the result ranges %v do not partition [0,%d)", ranges, m)
	}
	return ordered, nil
}

// TestPortfolioSchedules checks every generator statically, for every
// group size p ∈ 1..64 and block sizes at and around the least it needs:
// each directed pair's sends match its receives in order and word count;
// the ranks run to completion on one-slot links, so none waits on a
// cycle; no rank writes a range after shipping it; the result ranges
// partition the block; every result word is the reduction it should be.
// It derives whether each generator combines in rank order and fails when
// cost.Admits' rule for a non-commutative operator says otherwise.
func TestPortfolioSchedules(t *testing.T) {
	for _, g := range portfolioGenerators {
		ordered, firstUnordered := true, ""
		for p := 1; p <= 64; p++ {
			least := max(g.need*p, 1)
			seen := map[int]bool{}
			for _, m := range []int{least, least + 1, 2*least + 1, 64, 100} {
				if m < least || seen[m] {
					continue
				}
				seen[m] = true
				for _, parts := range g.parts {
					scheds := make([]schedule, p)
					for r := range scheds {
						scheds[r] = g.gen(p, r, m, parts)
						if n := len(scheds[r].steps); n > cap(scheds[r].steps) {
							t.Fatalf("%s p=%d m=%d rank %d: %d steps outgrew their capacity", g.name, p, m, r, n)
						}
					}
					ranks, err := simulate(p, m, scheds)
					if err == nil {
						var inOrder bool
						inOrder, err = checkResults(p, m, g.kind, ranks)
						if !inOrder && ordered {
							ordered, firstUnordered = false, fmt.Sprintf("p=%d m=%d", p, m)
						}
					}
					if err != nil {
						t.Fatalf("%s p=%d m=%d parts=%d: %v", g.name, p, m, parts, err)
					}
				}
			}
		}
		t.Logf("%-15s combines in rank order: %-5t %s", g.name, ordered, firstUnordered)
		if admits := cost.Admits(g.algo, algebra.Left); admits != ordered {
			t.Errorf("%s: cost.Admits(%s, left) = %t, but the schedule combines in rank order: %t (first counterexample %s)",
				g.name, g.algo, admits, ordered, firstUnordered)
		}
	}
}

// TestPortfolioRabenseifnerNeedsCommutative: an associative operator that
// is not commutative — the first non-zero operand — with x_r = r. The
// butterfly returns 1; Rabenseifner, which combines in distance order,
// would return 2 at p = 4 and 4 at p = 8, so ReduceBy must not run it.
func TestPortfolioRabenseifnerNeedsCommutative(t *testing.T) {
	firstNZ := algebra.NewBase("firstnz", func(x, y float64) float64 {
		if x != 0 {
			return x
		}
		return y
	})
	if cost.Admits(cost.AlgoRabenseifner, firstNZ) {
		t.Fatal("cost.Admits accepts Rabenseifner for an operator not declared commutative")
	}
	for _, p := range []int{4, 8} {
		out, _ := runSPMD(p, machine.Params{Ts: 4, Tw: 1}, func(pr Comm) Value {
			x := make(algebra.Vec, p)
			for j := range x {
				x[j] = float64(pr.Rank())
			}
			return ReduceBy(pr, firstNZ, x, true, cost.AlgoRabenseifner, 0)
		})
		for r, v := range out {
			for j, w := range v.(algebra.Vec) {
				if w != 1 {
					t.Fatalf("p=%d: rank %d word %d = %g, want 1", p, r, j, w)
				}
			}
		}
	}
}

// virtualRun is the virtual makespan of one reduction of m-word blocks
// dispatched by algorithm name.
func virtualRun(params machine.Params, p, m int, all bool, a cost.Algo, segments int) float64 {
	_, res := runSPMD(p, params, func(pr Comm) Value {
		return ReduceBy(pr, algebra.Add, make(algebra.Vec, m), all, a, segments)
	})
	return res.Makespan
}

// TestPortfolioAgainstTheModel sets each algorithm's virtual makespan
// beside the cost line that prices it, at ts = 100, tw = 1. The butterfly
// reduce and allreduce are their lines at power-of-two p; the portfolio's
// are not, because on the §4.1 link a send followed by a receive is two
// serialised transfers while each line prices a step as one. The log (-v)
// is the table docs/ALGORITHMS.md "The portfolio on the model's own
// machine" shows.
func TestPortfolioAgainstTheModel(t *testing.T) {
	params := machine.Params{Ts: 100, Tw: 1}
	at := func(p, m int) cost.Params { return cost.Params{Ts: params.Ts, Tw: params.Tw, P: p, M: m} }
	ratio := func(coll string, a cost.Algo, p, m int) float64 {
		line, ok := cost.AlgoCost(coll, a, at(p, m))
		if !ok {
			t.Fatalf("%s %s does not apply at p=%d m=%d", coll, a, p, m)
		}
		return virtualRun(params, p, m, coll == cost.CollAllReduce, a, cost.PipelineSegments(at(p, m))) / line
	}
	for _, p := range []int{2, 4, 8, 16, 32, 64} {
		for _, m := range []int{1, 64, 4096} {
			for _, coll := range []string{cost.CollAllReduce, cost.CollReduce} {
				if r := ratio(coll, cost.AlgoButterfly, p, m); r != 1 {
					t.Errorf("butterfly %s at p=%d m=%d: virtual ÷ line = %g, want 1", coll, p, m, r)
				}
			}
		}
	}
	const p, m = 8, 4096
	t.Logf("virtual makespan ÷ line at ts=%g tw=%g:", params.Ts, params.Tw)
	t.Logf("| %-10s | %-12s | %2s | %4s | %14s |", "collective", "algorithm", "p", "m", "virtual ÷ line")
	for _, coll := range []string{cost.CollAllReduce, cost.CollReduce} {
		for _, a := range cost.Algos(coll) {
			t.Logf("| %-10s | %-12s | %2d | %4d | %14.3f |", coll, a, p, m, ratio(coll, a, p, m))
		}
	}
	t.Logf("| %-10s | %-12s | %2d | %4d | %14.3f |", cost.CollAllReduce, cost.AlgoButterfly, 6, 64, ratio(cost.CollAllReduce, cost.AlgoButterfly, 6, 64))
	t.Logf("crossover against the butterfly at p=%d, ts=%g tw=%g:", p, params.Ts, params.Tw)
	t.Logf("| %-10s | %-12s | %9s | %17s |", "collective", "algorithm", "predicted", "first virtual win")
	for _, coll := range []string{cost.CollAllReduce, cost.CollReduce} {
		for _, a := range cost.Algos(coll)[1:] {
			predicted := cost.BreakEven(coll, a, at(p, 0), 1<<20)
			loses := func(m int) bool {
				k := cost.PipelineSegments(at(p, m))
				all := coll == cost.CollAllReduce
				return !cost.Applicable(coll, a, at(p, m)) ||
					virtualRun(params, p, m, all, a, k) >= virtualRun(params, p, m, all, cost.AlgoButterfly, 0)
			}
			_, first := cost.Bisect(1, 1<<14, -1, loses)
			t.Logf("| %-10s | %-12s | %9d | %17s |", coll, a, predicted, fmt.Sprintf("≈ %d", first))
		}
	}
}

// TestWarmPortfolioAllocs pins what a portfolio collective costs the warm
// ranks of a native run beyond the run itself, at p = 8. Every buffer is
// arena scratch; what is left is each rank's step list and a boxed view
// per chunk it sends or combines.
func TestWarmPortfolioAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	const p, m = 8, 64
	nm := backend.New(p)
	in := make([]Value, p)
	for r, b := range randBlocks(rand.New(rand.NewSource(411)), p, m) {
		in[r] = b
	}
	perRun := func(body func(*backend.Proc)) float64 {
		nm.Run(body)
		return testing.AllocsPerRun(100, func() { nm.Run(body) })
	}
	base := perRun(func(*backend.Proc) {})
	for _, c := range []struct {
		name string
		max  float64
		body func(*backend.Proc)
	}{
		{"rabenseifner", 80, func(pr *backend.Proc) { AllReduceRabenseifner(pr, algebra.Add, in[pr.Rank()]) }},
		{"ring", 176, func(pr *backend.Proc) { AllReduceRing(pr, algebra.Add, in[pr.Rank()]) }},
		{"ring-bi", 344, func(pr *backend.Proc) { AllReduceRingBi(pr, algebra.Add, in[pr.Rank()]) }},
		{"pipeline k=3", 50, func(pr *backend.Proc) { ReducePipelined(pr, algebra.Add, in[pr.Rank()], 3) }},
		{"reduce-scatter", 128, func(pr *backend.Proc) { ReduceScatter(pr, algebra.Add, in[pr.Rank()]) }},
	} {
		got := perRun(c.body) - base
		t.Logf("%-15s %4.0f allocs per run", c.name, got)
		if got > c.max {
			t.Errorf("%s at p=%d: %.0f allocs per run beyond an empty one, want at most %.0f", c.name, p, got, c.max)
		}
	}
}
