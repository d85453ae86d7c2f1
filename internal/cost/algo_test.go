package cost

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/term"
)

func TestAlgosBaselineFirst(t *testing.T) {
	for _, coll := range []string{CollAllReduce, CollReduce, "bcast"} {
		algos := Algos(coll)
		if len(algos) == 0 || algos[0] != AlgoButterfly {
			t.Errorf("Algos(%s) = %v: butterfly must lead", coll, algos)
		}
	}
}

// TestPipelineSegmentsMinimizes: the returned k must beat (or tie) every
// other segment count's cost line across a parameter sweep.
func TestPipelineSegmentsMinimizes(t *testing.T) {
	for _, p := range []Params{
		{Ts: 1000, Tw: 1, P: 8, M: 4096},
		{Ts: 100, Tw: 1, P: 16, M: 1024},
		{Ts: 5000, Tw: 0.1, P: 4, M: 64},
		{Ts: 203, Tw: 0.007, P: 8, M: 1 << 15},
	} {
		k := PipelineSegments(p)
		if k < 1 || k > p.M {
			t.Fatalf("%+v: k=%d out of range", p, k)
		}
		best := pipelineLine(p, k).At(p)
		for kk := 1; kk <= min(p.M, 512); kk++ {
			if c := pipelineLine(p, kk).At(p); c < best-1e-9 {
				t.Fatalf("%+v: k=%d (%.1f) beaten by k=%d (%.1f)", p, k, best, kk, c)
			}
		}
	}
}

func TestPipelineSegmentsEdges(t *testing.T) {
	if k := PipelineSegments(Params{Ts: 1000, Tw: 1, P: 1, M: 64}); k != 1 {
		t.Errorf("p=1: k=%d, want 1", k)
	}
	if k := PipelineSegments(Params{Ts: 0, Tw: 1, P: 8, M: 64}); k != 64 {
		t.Errorf("ts=0: k=%d, want m", k)
	}
}

func TestApplicable(t *testing.T) {
	small := Params{Ts: 100, Tw: 1, P: 8, M: 4} // m < p
	mid := Params{Ts: 100, Tw: 1, P: 8, M: 8}   // m = p
	large := Params{Ts: 100, Tw: 1, P: 8, M: 1 << 12}
	cases := []struct {
		coll string
		a    Algo
		p    Params
		want bool
	}{
		{CollAllReduce, AlgoButterfly, small, true},
		{CollAllReduce, AlgoRabenseifner, small, false},
		{CollAllReduce, AlgoRabenseifner, mid, true},
		{CollAllReduce, AlgoRing, small, false},
		{CollAllReduce, AlgoRing, large, true},
		{CollAllReduce, AlgoRingBi, mid, false}, // needs m ≥ 2p
		{CollAllReduce, AlgoRingBi, large, true},
		{CollAllReduce, AlgoPipeline, large, false}, // pipeline is reduce-only
		{CollReduce, AlgoPipeline, small, true},
		{CollReduce, AlgoRing, large, false}, // ring is allreduce-only
	}
	for _, c := range cases {
		if got := Applicable(c.coll, c.a, c.p); got != c.want {
			t.Errorf("Applicable(%s, %s, m=%d p=%d) = %v, want %v", c.coll, c.a, c.p.M, c.p.P, got, c.want)
		}
	}
}

// TestAlgoCostRegimes pins the qualitative shape: the butterfly wins the
// start-up-dominated corner, the reduce-scatter family wins the
// bandwidth-dominated one.
func TestAlgoCostRegimes(t *testing.T) {
	startup := Params{Ts: 10000, Tw: 1, P: 16, M: 64}
	if a, _ := BestAlgo(CollAllReduce, startup, algebra.Add); a != AlgoButterfly {
		t.Errorf("start-up regime picked %s, want butterfly", a)
	}
	bandwidth := Params{Ts: 10, Tw: 4, P: 16, M: 1 << 16}
	a, c := BestAlgo(CollAllReduce, bandwidth, algebra.Add)
	bf, _ := AlgoCost(CollAllReduce, AlgoButterfly, bandwidth)
	if a == AlgoButterfly || c >= bf {
		t.Errorf("bandwidth regime picked %s (%.0f vs butterfly %.0f)", a, c, bf)
	}
}

func TestRabenseifnerNonPow2FoldSurcharge(t *testing.T) {
	pow2 := Params{Ts: 100, Tw: 1, P: 8, M: 1024}
	odd := Params{Ts: 100, Tw: 1, P: 7, M: 1024}
	c8, _ := AlgoCost(CollAllReduce, AlgoRabenseifner, pow2)
	c7, _ := AlgoCost(CollAllReduce, AlgoRabenseifner, odd)
	if c7 <= c8 {
		t.Errorf("non-pow2 rabenseifner (%.0f) must carry the fold surcharge over pow2 (%.0f)", c7, c8)
	}
}

// TestBestAlgoNeverWorseThanButterfly is the selection-soundness
// property: across random parameters the chosen algorithm's predicted
// cost never exceeds the butterfly line, and the algorithm is one the
// operator admits.
func TestBestAlgoNeverWorseThanButterfly(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	derived := &algebra.Op{Name: "op_x", Arity: 2}
	for i := 0; i < 2000; i++ {
		p := Params{
			Ts: math.Exp(rng.Float64() * 10),
			Tw: math.Exp(rng.Float64()*6 - 3),
			P:  1 + rng.Intn(64),
			M:  1 + rng.Intn(1<<14),
		}
		for _, coll := range []string{CollAllReduce, CollReduce} {
			for _, op := range []*algebra.Op{algebra.Add, algebra.Left, derived} {
				a, c := BestAlgo(coll, p, op)
				bf, _ := AlgoCost(coll, AlgoButterfly, p)
				if c > bf {
					t.Fatalf("%s(%s) %+v: %s costs %.1f > butterfly %.1f", coll, op.Name, p, a, c, bf)
				}
				if !Admits(a, op) || op == derived && a != AlgoButterfly {
					t.Fatalf("%s(%s) %+v: picked %s, which the operator does not admit", coll, op.Name, p, a)
				}
				if !Applicable(coll, a, p) {
					t.Fatalf("BestAlgo picked inapplicable %s at %+v", a, p)
				}
			}
		}
	}
}

// TestOfTermAutoBounds: auto scoring never exceeds the butterfly
// estimate, agrees with it on programs without eligible reductions, and
// undercuts it where an alternative algorithm wins.
func TestOfTermAutoBounds(t *testing.T) {
	p := Params{Ts: 10, Tw: 4, P: 16, M: 1 << 14}
	prog := term.Seq{term.Scan{Op: algebra.Add}, term.Reduce{Op: algebra.Add, All: true}}
	if auto, plain := OfTermAuto(prog, p), OfTerm(prog, p); auto >= plain {
		t.Errorf("auto %.0f should undercut butterfly %.0f in the bandwidth regime", auto, plain)
	}
	scanOnly := term.Seq{term.Scan{Op: algebra.Add}, term.Bcast{}}
	if auto, plain := OfTermAuto(scanOnly, p), OfTerm(scanOnly, p); auto != plain {
		t.Errorf("auto %.0f must equal butterfly %.0f without eligible reductions", auto, plain)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		pp := Params{Ts: math.Exp(rng.Float64() * 8), Tw: math.Exp(rng.Float64()*4 - 2), P: 1 + rng.Intn(32), M: 1 + rng.Intn(1<<12)}
		if auto, plain := OfTermAuto(prog, pp), OfTerm(prog, pp); auto > plain+1e-9 {
			t.Fatalf("%+v: OfTermAuto %.1f > OfTerm %.1f", pp, auto, plain)
		}
	}
}

// TestSelectableReduce pins the side condition: balanced reductions and
// derived tuple operators are never selectable.
func TestSelectableReduce(t *testing.T) {
	if !SelectableReduce(term.Reduce{Op: algebra.Add, All: true}) {
		t.Error("allreduce(+) must be selectable")
	}
	if SelectableReduce(term.Reduce{Op: algebra.Add, All: true, Balanced: true}) {
		t.Error("balanced reductions are not selectable")
	}
	derived := &algebra.Op{Name: "op_x", Arity: 2}
	if SelectableReduce(term.Reduce{Op: derived}) {
		t.Error("derived tuple operators are not selectable")
	}
	// The rings and Rabenseifner reorder the combine: left, associative
	// only, keeps the algorithms that combine in rank order.
	for _, a := range []Algo{AlgoButterfly, AlgoRabenseifner, AlgoRing, AlgoRingBi, AlgoPipeline} {
		ordered := a == AlgoButterfly || a == AlgoPipeline
		if !Admits(a, algebra.Add) || Admits(a, algebra.Left) != ordered || Admits(a, derived) != (a == AlgoButterfly) {
			t.Errorf("Admits(%s): + %t, left %t, derived %t", a, Admits(a, algebra.Add), Admits(a, algebra.Left), Admits(a, derived))
		}
	}
}

// TestAlgoLinesAtHugeP: near the edge of int64 every algorithm's line is a
// finite, non-negative price, and ring-bi applies only with two words per
// member. The pipeline counted its p−2+k slots in int, which wrapped at
// p + k > MaxInt64 + 2 and priced the reduction below zero, so selection
// picked it over the butterfly; ring-bi's 2·p wrapped too.
func TestAlgoLinesAtHugeP(t *testing.T) {
	ok := func(x float64) bool { return x >= 0 && !math.IsInf(x, 0) && !math.IsNaN(x) }
	for _, bigP := range []int{1<<62 + 1, math.MaxInt64 - 1, math.MaxInt64} {
		for _, m := range []int{1, 64, bigP, math.MaxInt64} {
			p := Params{Ts: 1000, Tw: 1, P: bigP, M: m}
			for _, coll := range []string{CollReduce, CollAllReduce} {
				for _, a := range Algos(coll) {
					l, applies := AlgoLine(coll, a, p)
					if !applies {
						if a == AlgoButterfly || a == AlgoPipeline || a == AlgoRingBi && m/2 >= bigP {
							t.Errorf("%s %s at p=%d m=%d does not apply", coll, a, bigP, m)
						}
						continue
					}
					if a == AlgoRingBi && m/2 < bigP {
						t.Errorf("ring-bi applies at p=%d m=%d, fewer than two words per member", bigP, m)
					}
					if !ok(l.Rounds) || !ok(l.Startups) || !ok(l.Words) || !ok(l.Ops) || !ok(l.At(p)) {
						t.Errorf("%s %s at p=%d m=%d: line %+v prices %g", coll, a, bigP, m, l, l.At(p))
					}
				}
			}
		}
	}
}
