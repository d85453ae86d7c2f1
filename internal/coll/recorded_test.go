package coll

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/machine"
)

// update rewrites the recorded goldens the run selects from the tree
// under test. testdata/portfolio.golden was recorded from the
// hand-written loops, before the portfolio became schedules, and
// testdata/scan.golden from the scan that performed every combine it
// charged, so the tests hold the code that replaced them bit for bit.
var update = flag.Bool("update", false, "rewrite testdata/portfolio.golden and testdata/scan.golden from this tree")

// recordedCase is one row of the portfolio grid.
type recordedCase struct {
	name string
	need int // words per member the algorithm needs
	run  func(c Comm, op *algebra.Op, x Value, m int) Value
}

func recordedCases() []recordedCase {
	pipe := func(k func(p, m int) int) func(c Comm, op *algebra.Op, x Value, m int) Value {
		return func(c Comm, op *algebra.Op, x Value, m int) Value {
			return ReducePipelined(c, op, x, k(c.Size(), m))
		}
	}
	return []recordedCase{
		{"rabenseifner", 1, func(c Comm, op *algebra.Op, x Value, _ int) Value { return AllReduceRabenseifner(c, op, x) }},
		{"ring", 1, func(c Comm, op *algebra.Op, x Value, _ int) Value { return AllReduceRing(c, op, x) }},
		{"ring-bi", 2, func(c Comm, op *algebra.Op, x Value, _ int) Value { return AllReduceRingBi(c, op, x) }},
		{"pipeline-k1", 0, pipe(func(int, int) int { return 1 })},
		{"pipeline-k3", 0, pipe(func(int, int) int { return 3 })},
		{"pipeline-kopt", 0, pipe(func(p, m int) int {
			return cost.PipelineSegments(cost.Params{Ts: 100, Tw: 1, P: p, M: m})
		})},
		{"reduce-scatter", 1, func(c Comm, op *algebra.Op, x Value, _ int) Value { return ReduceScatter(c, op, x) }},
	}
}

// rle renders a per-rank column run-length encoded: "3×5 2" is five
// threes then a two.
func rle[T comparable](xs []T) string {
	var b strings.Builder
	for i := 0; i < len(xs); {
		j := i
		for j < len(xs) && xs[j] == xs[i] {
			j++
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		if j-i > 1 {
			fmt.Fprintf(&b, "%v×%d", xs[i], j-i)
		} else {
			fmt.Fprintf(&b, "%v", xs[i])
		}
		i = j
	}
	return b.String()
}

// recordedLines runs the grid on the virtual machine at ts = 100, tw = 1:
// every algorithm × p ∈ 1..64 × m ∈ {p, 2p+1, 64, 4096} where it applies
// × {+, max}. A row holds the makespan, each rank's message, word and
// operation counters, and a sha256 over every rank's result bits.
func recordedLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, cs := range recordedCases() {
		for p := 1; p <= 64; p++ {
			seen := map[int]bool{}
			for _, m := range []int{p, 2*p + 1, 64, 4096} {
				if seen[m] || m < cs.need*p {
					continue
				}
				seen[m] = true
				for _, op := range []*algebra.Op{algebra.Add, algebra.Max} {
					lines = append(lines, recordedLine(cs, op, p, m))
				}
			}
		}
	}
	return lines
}

func recordedLine(cs recordedCase, op *algebra.Op, p, m int) string {
	rng := rand.New(rand.NewSource(int64(p*10007 + m)))
	in := make([]algebra.Vec, p)
	for r := range in {
		in[r] = make(algebra.Vec, m)
		for j := range in[r] {
			in[r][j] = rng.Float64()*2 - 1
		}
	}
	sent, recv, words := make([]int, p), make([]int, p), make([]int, p)
	ops := make([]float64, p)
	out := make([]algebra.Vec, p)
	res := machine.New(p, machine.Params{Ts: 100, Tw: 1}).Run(func(pr *machine.Proc) {
		r := pr.Rank()
		v := cs.run(pr, op, in[r], m)
		out[r] = append(algebra.Vec(nil), v.(algebra.Vec)...)
		n := pr.Counters()
		sent[r], recv[r], words[r], ops[r] = n.Sent, n.Received, n.Words, n.Ops
	})
	h := sha256.New()
	var buf [8]byte
	for _, v := range out {
		binary.LittleEndian.PutUint64(buf[:], uint64(len(v)))
		h.Write(buf[:])
		for _, x := range v {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%s %s p=%d m=%d makespan=%g sent=[%s] recv=[%s] words=[%s] ops=[%s] results=%x",
		cs.name, op.Name, p, m, res.Makespan, rle(sent), rle(recv), rle(words), rle(ops), h.Sum(nil))
}

// TestRecordedPortfolio: every portfolio algorithm takes the virtual time,
// sends the messages and words, charges the operations and returns the
// bits it did when each was a hand-written loop.
func TestRecordedPortfolio(t *testing.T) {
	if raceEnabled && !*update {
		t.Skip("a value check over 3 380 virtual runs; the race detector adds only time to it")
	}
	checkRecorded(t, "testdata/portfolio.golden", recordedLines(t))
}

// checkRecorded compares got with the rows recorded at path, or, under
// -update, records them there.
func checkRecorded(t *testing.T, path string, got []string) {
	t.Helper()
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(got) != len(want) {
		t.Fatalf("%d rows, recorded %d", len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			if bad++; bad <= 10 {
				t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("… and %d more", bad-10)
	}
}
