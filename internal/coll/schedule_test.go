package coll

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/cost"
	"repro/internal/machine"
)

// What a schedule computes, for the checks. Ranks are counted from the
// root: virtual rank v is rank (v + root) mod p, and a rooted schedule's
// combining order is checked in virtual-rank order.
const (
	allReduced  = iota // every rank: the reduction of the whole block
	rootReduced        // the root: the reduction; every other rank: its own block
	scattered          // rank r: the reduction of its own chunk, the chunks partitioning the block
	broadcast          // every rank: the root's block
	scanned            // rank r: x_0 ⊕ … ⊕ x_r
)

// portfolioGenerators are every generator with what it computes, the
// words per member it needs, the algorithm whose cost.Admits rule its
// combining order must agree with (reduce-scatter is the ring's first
// half) and the args it is checked at; a rooted one is checked at roots
// 0, p/2 and p − 1.
var portfolioGenerators = []struct {
	name   string
	gen    generator
	algo   cost.Algo
	kind   int
	need   int
	args   []int
	rooted bool
}{
	{"bcast", genBcast, cost.AlgoButterfly, broadcast, 0, nil, true},
	{"reduce", genReduce, cost.AlgoButterfly, rootReduced, 0, nil, true},
	{"allreduce", genAllReduce, cost.AlgoButterfly, allReduced, 0, []int{0}, false},
	{"scan", genScan, cost.AlgoButterfly, scanned, 0, []int{0}, false},
	{"reduce-balanced", genReduceBalanced, cost.AlgoButterfly, rootReduced, 0, []int{0}, false},
	{"rabenseifner", genRabenseifner, cost.AlgoRabenseifner, allReduced, 1, []int{0}, false},
	{"ring", genRing, cost.AlgoRing, allReduced, 1, []int{0}, false},
	{"ring-bi", genRingBi, cost.AlgoRingBi, allReduced, 2, []int{0}, false},
	{"pipeline", genPipeline, cost.AlgoPipeline, rootReduced, 0, []int{0, 1, 2, 3, 7, 1000}, false},
	{"reduce-scatter", genReduceScatter, cost.AlgoRing, scattered, 1, []int{0}, false},
}

// built is gen's schedule, in steps of its own.
func built(gen generator, p, rank, m, arg int) schedule {
	var s schedule
	gen.build(&s, p, rank, m, arg)
	return s
}

// contribution is what one word holds in the symbolic run of a schedule:
// the virtual ranks whose inputs it combines, and whether it combines
// them in order — x_first ⊕ x_first+1 ⊕ … ⊕ x_last. The empty
// contribution is the undetermined value a scan leader hands back when it
// has no exclusive prefix.
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

// message is a value in flight: its words' contributions and, whole, the
// storage it lives in and whether a move gave it away.
type message struct {
	words []contribution
	id    int
	moved bool
}

// simRank is one rank of the symbolic run. On a whole schedule every
// buffer is one word, id names the storage its value lives in — shared by
// every buffer and rank that holds the value; 0 is unset and −1 moved
// away — and own is exec's ownership rule run alongside.
type simRank struct {
	s        schedule
	pc       int
	swapping bool // the current doSwap's value has gone out
	buf      [nbuf][]contribution
	shipped  [nbuf][]bool
	id       [nbuf]int
	own      owners
}

// simRun is the symbolic run of one schedule per rank, on links that hold
// one message each. flat says whether a whole workBuf starts as a flat
// copy the rank owns (frame.value flattened the input) or as the input itself.
type simRun struct {
	p, m     int
	flat     bool
	ranks    []simRank
	slot     []*message   // slot[src*p+dst], nil when empty
	frozen   map[int]bool // whole storage that is a caller's input or was shipped as a borrow
	ids      int
	progress bool
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

// read is whole buffer b of rank r, set up as frame.value sets it up. It
// fails on a value moved away and on a buffer never written.
func (sr *simRun) read(r int, b buffer) ([]contribution, error) {
	rk := &sr.ranks[r]
	switch {
	case rk.id[b] < 0:
		return nil, fmt.Errorf("rank %d step %d reads buffer %d after moving it away", r, rk.pc, b)
	case rk.id[b] > 0:
		return rk.buf[b], nil
	case b == workBuf && sr.flat:
		sr.ids++
		rk.buf[b], rk.id[b], rk.own[b] = slices.Clone(rk.buf[inBuf]), sr.ids, true
	case b == workBuf:
		rk.buf[b], rk.id[b] = slices.Clone(rk.buf[inBuf]), rk.id[inBuf]
	case b == exclBuf:
		sr.ids++
		rk.buf[b], rk.id[b] = []contribution{{}}, sr.ids
	default:
		return nil, fmt.Errorf("rank %d step %d reads buffer %d before writing it", r, rk.pc, b)
	}
	return rk.buf[b], nil
}

// writable checks that rank r may write storage id in place: it was never
// shipped as a borrow, is no caller's input, and no other of the rank's
// buffers holds it.
func (sr *simRun) writable(r int, b buffer, id int) error {
	rk := &sr.ranks[r]
	if sr.frozen[id] {
		return fmt.Errorf("rank %d step %d writes buffer %d's value in place after it was shipped", r, rk.pc, b)
	}
	for o := range rk.id {
		if buffer(o) != b && rk.id[o] == id {
			return fmt.Errorf("rank %d step %d writes buffer %d's value in place while buffer %d holds it", r, rk.pc, b, o)
		}
	}
	return nil
}

// put ships buffer b (whole) or its range as rank r's message to peer;
// false when the link is full.
func (sr *simRun) put(r int, st step) (bool, error) {
	rk, link := &sr.ranks[r], r*sr.p+st.peer
	if sr.slot[link] != nil {
		return false, nil
	}
	if !rk.s.whole {
		sr.slot[link] = &message{words: slices.Clone(rk.get(st.buf, sr.m)[st.lo:st.hi])}
		for j := st.lo; j < st.hi; j++ {
			rk.shipped[st.buf][j] = true
		}
		return true, nil
	}
	w, err := sr.read(r, st.buf)
	if err != nil {
		return false, err
	}
	msg := &message{words: slices.Clone(w), id: rk.id[st.buf], moved: st.act == doMove && rk.own[st.buf]}
	if !msg.moved {
		sr.frozen[msg.id] = true
	}
	if st.act == doMove {
		rk.id[st.buf] = -1
	}
	sr.slot[link] = msg
	return true, nil
}

// take receives rank r's next message from peer, or nil when none waits.
func (sr *simRun) take(r, peer int) *message {
	link := peer*sr.p + r
	msg := sr.slot[link]
	sr.slot[link] = nil
	return msg
}

// step runs rank r's next step and reports whether it did; false means it
// waits on a link.
func (sr *simRun) step(r int) (bool, error) {
	p, m, rk := sr.p, sr.m, &sr.ranks[r]
	st := rk.s.steps[rk.pc]
	hasPeer := st.peer >= 0
	switch st.act {
	case doKeep, doCharge, doUnary:
		hasPeer = false
	case doSend, doMove, doSwap, doCopy, doPrefix:
		hasPeer = true
	}
	if (st.peer < -1 || st.peer >= p || st.peer == r) || hasPeer != (st.peer >= 0) ||
		(!rk.s.whole && (st.lo < 0 || st.lo >= st.hi || st.hi > m || st.act > doKeep || st.peer < 0 && st.act != doKeep)) {
		return false, fmt.Errorf("rank %d step %d is malformed: %+v", r, rk.pc, st)
	}
	switch st.act {
	case doSend, doMove:
		if ok, err := sr.put(r, st); !ok || err != nil {
			return false, err
		}
	case doSwap:
		if !rk.swapping {
			ok, err := sr.put(r, st)
			if !ok || err != nil {
				return false, err
			}
			rk.swapping, sr.progress = true, true
		}
		msg := sr.take(r, st.peer)
		if msg == nil {
			return false, nil
		}
		rk.swapping = false
		rk.buf[msgBuf], rk.id[msgBuf] = msg.words, msg.id
	case doKeep:
		if !rk.s.whole {
			if err := rk.write(r, st.buf, st.lo, st.hi, m); err != nil {
				return false, err
			}
			copy(rk.get(st.buf, m)[st.lo:st.hi], rk.get(st.src, m)[st.lo:st.hi])
			break
		}
		w, err := sr.read(r, st.src)
		if err != nil {
			return false, err
		}
		rk.buf[st.buf], rk.id[st.buf] = w, rk.id[st.src]
	case doCharge:
		for _, b := range []buffer{st.buf, st.src} {
			if _, err := sr.read(r, b); err != nil {
				return false, err
			}
		}
	default:
		var msg *message
		if hasPeer {
			if msg = sr.take(r, st.peer); msg == nil {
				return false, nil
			}
		}
		if !rk.s.whole {
			return true, sr.combineRange(r, st, msg.words)
		}
		if msg != nil {
			rk.buf[msgBuf], rk.id[msgBuf] = msg.words, msg.id
		}
		adopted := msg != nil && msg.moved
		if st.act == doCopy {
			rk.buf[st.buf], rk.id[st.buf] = msg.words, msg.id
			rk.own.next(&st, adopted)
			return true, nil
		}
		return true, sr.combineWhole(r, st, adopted)
	}
	if rk.s.whole {
		rk.own.next(&st, false)
	}
	return true, nil
}

// combineRange runs a receiving step on a word range.
func (sr *simRun) combineRange(r int, st step, msg []contribution) error {
	rk := &sr.ranks[r]
	if len(msg) != st.hi-st.lo {
		return fmt.Errorf("rank %d step %d receives %d words from rank %d, which sent %d", r, rk.pc, st.hi-st.lo, st.peer, len(msg))
	}
	if err := rk.write(r, st.buf, st.lo, st.hi, sr.m); err != nil {
		return err
	}
	dst := rk.get(st.buf, sr.m)[st.lo:st.hi]
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
			return fmt.Errorf("rank %d step %d combines word %d with an empty or overlapping contribution", r, rk.pc, st.lo+j)
		}
	}
	return nil
}

// combineWhole runs a combining step on whole values, writing where exec's
// ownership rule says and checking that the write is safe.
func (sr *simRun) combineWhole(r int, st step, adopted bool) error {
	rk := &sr.ranks[r]
	cur, err := sr.read(r, st.buf)
	if err != nil {
		return err
	}
	in := cur
	if st.act != doUnary {
		if in, err = sr.read(r, msgBuf); err != nil {
			return err
		}
	}
	if st.act == doPrefix && in[0].ranks == 0 {
		rk.buf[st.buf], rk.id[st.buf], rk.own[st.buf] = rk.buf[inBuf], rk.id[inBuf], false
		return nil
	}
	id := rk.id[st.buf]
	switch inPlace, adopt := rk.own.next(&st, adopted); {
	case inPlace:
		err = sr.writable(r, st.buf, id)
	case adopt:
		id, rk.id[msgBuf] = rk.id[msgBuf], -1
		err = sr.writable(r, st.buf, id)
	default:
		sr.ids++
		id = sr.ids
	}
	if err != nil {
		return err
	}
	c, ok := in[0].then(cur[0])
	switch st.act {
	case doRight:
		c, ok = cur[0].then(in[0])
	case doUnary:
		c, ok = cur[0], cur[0].ranks != 0
	}
	if !ok {
		return fmt.Errorf("rank %d step %d combines an empty or overlapping contribution", r, rk.pc)
	}
	rk.buf[st.buf], rk.id[st.buf] = []contribution{c}, id
	return nil
}

// simulate runs every rank's schedule together on links that hold one
// message each, moving contributions instead of words; a whole schedule
// runs on one-word buffers. It fails when a receive's word count differs
// from the matching send's, when a rank writes a range it has shipped (or
// its input), when a whole value is written in place after it was shipped
// or while another buffer holds it, when a rank reads a value it moved
// away, when a combine would count a rank twice or combine nothing, when
// the ranks stop with steps left (a wait cycle) and when a message is never
// received. It returns the ranks as they finished.
func simulate(p, m, root int, flat bool, scheds []schedule) ([]simRank, error) {
	sr := simRun{p: p, m: m, flat: flat, ranks: make([]simRank, p), slot: make([]*message, p*p), frozen: map[int]bool{}, ids: p}
	for r := range sr.ranks {
		rk := &sr.ranks[r]
		rk.s = scheds[r]
		if rk.s.whole {
			m = 1
		}
		v := (r - root + p) % p
		in := rk.get(inBuf, m)
		for j := range in {
			in[j] = contribution{1 << v, v, v, true}
		}
		rk.id[inBuf] = r + 1
		sr.frozen[r+1] = true
	}
	for sr.progress = true; sr.progress; {
		sr.progress = false
		for r := range sr.ranks {
			for sr.ranks[r].pc < len(sr.ranks[r].s.steps) {
				ok, err := sr.step(r)
				if err != nil {
					return nil, err
				}
				if !ok {
					break
				}
				sr.ranks[r].pc++
				sr.progress = true
			}
		}
	}
	for r, rk := range sr.ranks {
		if rk.pc < len(rk.s.steps) {
			return nil, fmt.Errorf("rank %d waits forever at step %d of %d: %+v", r, rk.pc, len(rk.s.steps), rk.s.steps[rk.pc])
		}
	}
	for link, msg := range sr.slot {
		if msg != nil {
			return nil, fmt.Errorf("rank %d's message to rank %d is never received", link/p, link%p)
		}
	}
	for r := range sr.ranks {
		if rk := &sr.ranks[r]; rk.s.whole {
			if _, err := sr.read(r, rk.s.res); err != nil {
				return nil, fmt.Errorf("the result: %v", err)
			}
		}
	}
	return sr.ranks, nil
}

// checkResults checks what each rank returns against kind and reports
// whether every reduced word combines the ranks in virtual-rank order.
func checkResults(p, m, root, kind int, ranks []simRank) (ordered bool, err error) {
	all := uint64(1)<<p - 1
	ordered = true
	var ranges [][2]int
	for r := range ranks {
		rk := &ranks[r]
		v := (r - root + p) % p
		lo, hi, words := 0, 1, rk.buf[rk.s.res]
		if !rk.s.whole {
			lo, hi = rk.s.lo, rk.s.hi
			if lo < 0 || lo >= hi || hi > m {
				return false, fmt.Errorf("rank %d returns the malformed range [%d,%d)", r, lo, hi)
			}
			words = rk.get(rk.s.res, m)[lo:hi]
			ranges = append(ranges, [2]int{lo, hi})
			if kind != scattered && (lo != 0 || hi != m) && (kind != rootReduced || v == 0) {
				return false, fmt.Errorf("rank %d returns [%d,%d), want the whole block [0,%d)", r, lo, hi, m)
			}
		}
		want := all
		switch {
		case kind == rootReduced && v > 0:
			want = 1 << v
		case kind == broadcast:
			want = 1
		case kind == scanned:
			want = uint64(1)<<(v+1) - 1
		}
		for j, c := range words {
			if c.ranks != want {
				return false, fmt.Errorf("rank %d result word %d combines virtual ranks %b, want %b", r, lo+j, c.ranks, want)
			}
			ordered = ordered && c.ordered
		}
	}
	if kind != scattered || ranks[0].s.whole {
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
// group size p ∈ 1..64, at every root of a rooted one, on whole values
// both as a flat copy the rank owns and as the caller's input, and on
// block sizes at and around the least a range schedule needs: each
// directed pair's sends match its receives in order and word count; the
// ranks run to completion on one-slot links, so none waits on a cycle; no
// rank writes a range, or a whole value in place, after shipping or moving
// it; no rank reads a value it moved away; the result ranges partition the
// block; every result word is what it should be. It derives whether each
// generator combines in (virtual) rank order and fails when cost.Admits'
// rule for a non-commutative operator says otherwise.
func TestPortfolioSchedules(t *testing.T) {
	for _, g := range portfolioGenerators {
		ordered, firstUnordered := true, ""
		for p := 1; p <= 64; p++ {
			args := g.args
			if g.rooted {
				args = slices.Compact([]int{0, p / 2, p - 1})
			}
			whole := built(g.gen, p, 0, 1, args[0]).whole
			least := max(g.need*p, 1)
			ms, flats := []int{1}, []bool{false, true}
			if !whole {
				ms, flats = slices.Compact([]int{least, least + 1, 2*least + 1}), []bool{false}
				for _, m := range []int{64, 100} {
					if m >= least && !slices.Contains(ms, m) {
						ms = append(ms, m)
					}
				}
			}
			for _, m := range ms {
				for _, arg := range args {
					for _, flat := range flats {
						scheds := make([]schedule, p)
						for r := range scheds {
							scheds[r] = built(g.gen, p, r, m, arg)
						}
						root := 0
						if g.rooted {
							root = arg
						}
						ranks, err := simulate(p, m, root, flat, scheds)
						if err == nil {
							var inOrder bool
							inOrder, err = checkResults(p, m, root, g.kind, ranks)
							if !inOrder && ordered {
								ordered, firstUnordered = false, fmt.Sprintf("p=%d m=%d", p, m)
							}
						}
						if err != nil {
							t.Fatalf("%s p=%d m=%d arg=%d flat=%t: %v", g.name, p, m, arg, flat, err)
						}
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
// arena scratch and each rank's step list is on its stack (ring-bi's
// outgrows it and is on the heap); what is left is a boxed view per chunk
// it sends or combines.
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
		{"rabenseifner", 72, func(pr *backend.Proc) { AllReduceRabenseifner(pr, algebra.Add, in[pr.Rank()]) }},
		{"ring", 168, func(pr *backend.Proc) { AllReduceRing(pr, algebra.Add, in[pr.Rank()]) }},
		{"ring-bi", 344, func(pr *backend.Proc) { AllReduceRingBi(pr, algebra.Add, in[pr.Rank()]) }},
		{"pipeline k=3", 42, func(pr *backend.Proc) { ReducePipelined(pr, algebra.Add, in[pr.Rank()], 3) }},
		{"reduce-scatter", 120, func(pr *backend.Proc) { ReduceScatter(pr, algebra.Add, in[pr.Rank()]) }},
	} {
		got := perRun(c.body) - base
		t.Logf("%-15s %4.0f allocs per run", c.name, got)
		if got > c.max {
			t.Errorf("%s at p=%d: %.0f allocs per run beyond an empty one, want at most %.0f", c.name, p, got, c.max)
		}
	}
}
