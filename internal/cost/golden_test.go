package cost_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cost"
	"repro/internal/exper"
	"repro/internal/golden"
	"repro/internal/rules"
	"repro/internal/term"
)

// goldenPoints are the three parameter points of the symbolic tests.
var goldenPoints = []cost.Params{
	{Ts: 100, Tw: 2, M: 10, P: 8},
	{Ts: 5000, Tw: 1, M: 16, P: 32},
	{Ts: 1, Tw: 1, M: 1024, P: 64},
}

// goldenCorpus is rules.RandProgram's first 500 programs, a sparse corpus
// (rules.RandSparseProgram at each point's machine size) and both sides of
// the eleven Table 1 pairs, which bring in the derived stages (comcast,
// iter, the balanced collectives, the repeat schema) the generators never
// draw.
func goldenCorpus(t *testing.T) []term.Term {
	t.Helper()
	var progs []term.Term
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		progs = append(progs, rules.RandProgram(rng, 8))
	}
	rng = rand.New(rand.NewSource(2))
	for _, pt := range goldenPoints {
		for i := 0; i < 40; i++ {
			progs = append(progs, rules.RandSparseProgram(rng, pt.P))
		}
	}
	for _, pat := range exper.Patterns() {
		lhs, rhs, err := exper.RulePair(pat.Rule, 8)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, lhs.Term(), rhs.Term())
	}
	return progs
}

func g(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }

// goldenLines renders every estimate the test pins, one line per
// (point, program) and per (point, collective, algorithm, p, m).
func goldenLines(t *testing.T) []string {
	var out []string
	progs := goldenCorpus(t)
	for pi, pt := range goldenPoints {
		for i, prog := range progs {
			out = append(out, fmt.Sprintf("walk %d %d %s %s %s", pi, i,
				g(cost.OfTerm(prog, pt)), g(cost.OfTermAuto(prog, pt)), g(cost.Floor(prog, pt))))
		}
		for _, p := range []int{pt.P, pt.P - 1, 2, 1} {
			for _, m := range []int{1, pt.M, 64 * pt.M, 100000} {
				at := cost.Params{Ts: pt.Ts, Tw: pt.Tw, P: p, M: m}
				out = append(out, fmt.Sprintf("segments %d %d %d %d", pi, p, m, cost.PipelineSegments(at)))
				for _, collective := range []string{cost.CollAllReduce, cost.CollReduce} {
					for _, a := range cost.Algos(collective) {
						c, ok := cost.AlgoCost(collective, a, at)
						out = append(out, fmt.Sprintf("algo %d %s %s %d %d %s %v", pi, collective, a, p, m, g(c), ok))
					}
				}
			}
			for _, collective := range []string{cost.CollAllReduce, cost.CollReduce} {
				for _, a := range cost.Algos(collective) {
					base := cost.Params{Ts: pt.Ts, Tw: pt.Tw, P: p}
					out = append(out, fmt.Sprintf("breakeven %d %s %s %d %d", pi, collective, a, p, cost.BreakEven(collective, a, base, 1<<20)))
				}
			}
		}
	}
	return out
}

// reassociated reports whether a recorded row prices one of the two
// portfolio lines whose hand-written expression summed in another order
// than Line.At does and whose products round even at integer parameters:
// the pipeline (segments of m/k words, written m/k·(tw+1)) and
// Rabenseifner on a non-power-of-two group (q = (p−1)/p, the fold
// surcharge added as a second sum). Those rows are held to a few units in
// the last place; every other row — and every walk, including the ones
// whose OfTermAuto picks these lines — to the bit.
func reassociated(row string) bool {
	f := strings.Fields(row)
	if f[0] != "algo" {
		return false
	}
	p, _ := strconv.Atoi(f[4])
	return f[3] == string(cost.AlgoPipeline) || f[3] == string(cost.AlgoRabenseifner) && p&(p-1) != 0
}

// sameRow compares two rows field by field, floats within ulps units in
// the last place.
func sameRow(got, want string, ulps float64) bool {
	g, w := strings.Fields(got), strings.Fields(want)
	if len(g) != len(w) {
		return false
	}
	for i := range g {
		x, errX := strconv.ParseFloat(g[i], 64)
		y, errY := strconv.ParseFloat(w[i], 64)
		if errX != nil || errY != nil {
			if g[i] != w[i] {
				return false
			}
			continue
		}
		if math.Abs(x-y) > ulps*(math.Nextafter(math.Abs(y), math.Inf(1))-math.Abs(y)) {
			return false
		}
	}
	return true
}

// TestEstimatesMatchRecorded: OfTerm, OfTermAuto, Floor, AlgoCost,
// BreakEven and PipelineSegments return — to the bit — what they returned
// before every one of them became a view of cost.Line.
func TestEstimatesMatchRecorded(t *testing.T) {
	golden.Check(t, "testdata/estimates.golden", goldenLines(t), func(_ int, got, want string) bool {
		return reassociated(want) && sameRow(got, want, 4)
	})
}
