package sel

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/cost"
	"repro/internal/rules"
	"repro/internal/term"
)

// calibrated is a representative native-machine fit (the shape a
// collbench -calibrate run produces): the boundary tests below pin the
// selector on either side of the crossovers this fixed fit predicts,
// independent of whatever the current host would calibrate to.
var calibrated = cost.Params{Ts: 203.6, Tw: 0.007}

// TestChooseCalibratedBoundaries pins the chosen algorithm on either
// side of each calibrated crossover: just below the first break-even the
// butterfly must win, just above an algorithm's own break-even that
// algorithm must beat the butterfly, and the expected winner at
// representative block sizes is fixed.
func TestChooseCalibratedBoundaries(t *testing.T) {
	cases := []struct {
		collective string
		p, m       int
		want       cost.Algo
	}{
		// p=8 (power of two): rabenseifner breaks even at m=287.
		{cost.CollAllReduce, 8, 286, cost.AlgoButterfly},
		{cost.CollAllReduce, 8, 287, cost.AlgoRabenseifner},
		{cost.CollAllReduce, 8, 4096, cost.AlgoRabenseifner},
		// p=7 (fold surcharge): ring-bi overtakes first, at m=850.
		{cost.CollAllReduce, 7, 849, cost.AlgoButterfly},
		{cost.CollAllReduce, 7, 850, cost.AlgoRingBi},
		{cost.CollAllReduce, 7, 65536, cost.AlgoRingBi},
		// Rooted reduce at p=8: pipeline breaks even at m=1770.
		{cost.CollReduce, 8, 1769, cost.AlgoButterfly},
		{cost.CollReduce, 8, 1770, cost.AlgoPipeline},
		{cost.CollReduce, 8, 65536, cost.AlgoPipeline},
	}
	for _, c := range cases {
		p := calibrated
		p.P, p.M = c.p, c.m
		got := Choose(c.collective, p)
		if got.Algo != c.want {
			t.Errorf("Choose(%s, p=%d, m=%d) = %s, want %s", c.collective, c.p, c.m, got.Algo, c.want)
		}
		if got.Predicted > got.Butterfly {
			t.Errorf("Choose(%s, p=%d, m=%d): predicted %.0f exceeds butterfly %.0f",
				c.collective, c.p, c.m, got.Predicted, got.Butterfly)
		}
		if got.Algo == cost.AlgoPipeline && got.Segments < 1 {
			t.Errorf("pipeline selection without a segment count: %+v", got)
		}
	}
}

// TestBreakEvenMatchesLinearScan validates the bisection against an
// exhaustive scan at the calibrated parameters.
func TestBreakEvenMatchesLinearScan(t *testing.T) {
	for _, p := range []int{4, 7, 8, 16} {
		base := calibrated
		base.P = p
		for _, collective := range []string{cost.CollAllReduce, cost.CollReduce} {
			for _, a := range cost.Algos(collective)[1:] {
				got := cost.BreakEven(collective, a, base, 1<<13)
				want := 0
				for m := 1; m <= 1<<13; m++ {
					pp := base
					pp.M = m
					c, ok := cost.AlgoCost(collective, a, pp)
					if !ok {
						continue
					}
					if bf, _ := cost.AlgoCost(collective, cost.AlgoButterfly, pp); c < bf {
						want = m
						break
					}
				}
				if got != want {
					t.Errorf("BreakEven(%s, %s, p=%d) = %d, linear scan found %d", collective, a, p, got, want)
				}
			}
		}
	}
}

// TestChooseNeverWorseThanButterfly is the selection-soundness property
// at the sel layer: across random parameters the selection's predicted
// cost never exceeds the butterfly's.
func TestChooseNeverWorseThanButterfly(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 3000; i++ {
		p := cost.Params{
			Ts: math.Exp(rng.Float64() * 10),
			Tw: math.Exp(rng.Float64()*6 - 3),
			P:  1 + rng.Intn(64),
			M:  1 + rng.Intn(1<<15),
		}
		for _, collective := range []string{cost.CollAllReduce, cost.CollReduce} {
			s := Choose(collective, p)
			if s.Predicted > s.Butterfly {
				t.Fatalf("%s %+v: %s predicted %.1f > butterfly %.1f", collective, p, s.Algo, s.Predicted, s.Butterfly)
			}
			if !cost.Applicable(collective, s.Algo, p) {
				t.Fatalf("%s %+v: chose inapplicable %s", collective, p, s.Algo)
			}
		}
	}
}

// TestForTermStageIndices: selections address eligible stages by their
// flattened index, skipping balanced and derived-operator reductions.
func TestForTermStageIndices(t *testing.T) {
	prog := term.Seq{
		term.Scan{Op: algebra.Add},                                 // 0
		term.Reduce{Op: algebra.Add, All: true},                    // 1: eligible
		term.Bcast{},                                               // 2
		term.Seq{term.Reduce{Op: algebra.Add}},                     // 3: eligible (nested)
		term.Reduce{Op: algebra.OpSR(algebra.Add), Balanced: true}, // 4: balanced, skipped
	}
	p := calibrated
	p.P, p.M = 8, 4096
	sels := ForTerm(prog, p)
	if len(sels) != 2 {
		t.Fatalf("ForTerm returned %d selections, want 2: %v", len(sels), sels)
	}
	if sels[0].Stage != 1 || sels[0].Collective != cost.CollAllReduce {
		t.Errorf("first selection %+v, want stage 1 allreduce", sels[0])
	}
	if sels[1].Stage != 3 || sels[1].Collective != cost.CollReduce {
		t.Errorf("second selection %+v, want stage 3 reduce", sels[1])
	}
	// At these parameters both eligible stages leave the butterfly.
	if sels[0].Algo == cost.AlgoButterfly || sels[1].Algo == cost.AlgoButterfly {
		t.Errorf("expected non-butterfly selections at m=4096: %v", sels)
	}
}

// TestForTermTracksBlockSize: a scatter hands each rank a 1/p share, so
// the reduction after it is selected at the smaller block — small enough
// here to keep the butterfly that a global-m selection would leave.
func TestForTermTracksBlockSize(t *testing.T) {
	p := calibrated
	p.P, p.M = 8, 2048
	flat := term.Seq{term.Reduce{Op: algebra.Add, All: true}}
	if s := ForTerm(flat, p); s[0].Algo == cost.AlgoButterfly {
		t.Fatalf("m=2048 should select a non-butterfly algorithm, got %v", s)
	}
	scattered := term.Seq{
		term.Gather{},
		term.Scatter{},
		term.Reduce{Op: algebra.Add, All: true},
	}
	// gather: m -> p·m at the root; scatter: back to m... so use a
	// scatter-only program via block tracking from the global M.
	sels := ForTerm(scattered, p)
	if len(sels) != 1 {
		t.Fatalf("want 1 selection, got %v", sels)
	}
	if sels[0].M != 2048 {
		t.Errorf("gather;scatter is block-neutral: stage m=%d, want 2048", sels[0].M)
	}
	shrink := term.Seq{term.Scatter{}, term.Reduce{Op: algebra.Add, All: true}}
	sels = ForTerm(shrink, p)
	if sels[0].M != 2048/8 {
		t.Errorf("scatter shrinks the block: stage m=%d, want %d", sels[0].M, 2048/8)
	}
	if sels[0].Algo != cost.AlgoButterfly {
		t.Errorf("at m=%d the butterfly should win, got %s", sels[0].M, sels[0].Algo)
	}
}

func TestSelectionString(t *testing.T) {
	s := Selection{Stage: 2, Collective: cost.CollAllReduce, Algo: cost.AlgoRabenseifner, M: 4096, Predicted: 100, Butterfly: 200}
	out := s.String()
	for _, want := range []string{"stage 2", "allreduce", "m=4096", "rabenseifner", "butterfly 200"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() = %q, missing %q", out, want)
		}
	}
	k := Selection{Stage: 0, Collective: cost.CollReduce, Algo: cost.AlgoPipeline, Segments: 12, M: 4096}
	if !strings.Contains(k.String(), "k=12") {
		t.Errorf("pipeline String() = %q, missing segment count", k.String())
	}
}

// TestForTermSharesTheEstimateWalk is the cost half of the single-walk
// property: over random dense and sparse programs, power-of-two and other
// machine sizes, and block sizes on both sides of every cost.Applicable
// threshold, the auto estimate is exactly the sum, over the one walk, of
// Selection.Predicted for the selected stages and the butterfly price for
// the rest; the selections sit at the walk's indices and block sizes; and
// the three pricings keep their order (auto ≤ butterfly, floor ≤
// butterfly).
func TestForTermSharesTheEstimateWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1208))
	for _, p := range []int{1, 2, 5, 7, 8, 16} {
		for _, m := range []int{1, p - 1, p, 2*p - 1, 2 * p, 4096} {
			if m < 1 {
				continue
			}
			for trial := 0; trial < 40; trial++ {
				prog := rules.RandProgram(rng, 8)
				if trial%3 == 2 && p > 1 {
					// Sparse stages reshape the block ahead of dense ones.
					prog = term.Compose(rules.RandSparseProgram(rng, p), prog)
				}
				params := cost.Params{Ts: calibrated.Ts, Tw: calibrated.Tw, P: p, M: m}
				if trial%2 == 1 {
					params.Ts, params.Tw = 1, 1 // cheap start-ups: the alternatives win
				}
				sels := ForTerm(prog, params)
				var butterfly []float64
				cost.Walk(prog, params, cost.PriceButterfly, func(st cost.Step) {
					butterfly = append(butterfly, st.Cost)
				})
				sum, next := 0.0, 0
				auto := cost.Walk(prog, params, cost.PricePortfolio, func(st cost.Step) {
					if next < len(sels) && sels[next].Stage == st.Index {
						s := sels[next]
						next++
						if s.M != int(math.Round(st.In)) || s.Predicted != st.Cost {
							t.Fatalf("%s at %+v: selection %+v, walk step %+v", prog, params, s, st)
						}
						sum += s.Predicted
						return
					}
					if st.Cost != butterfly[st.Index] {
						t.Fatalf("%s at %+v: unselected stage %d priced %g, butterfly %g",
							prog, params, st.Index, st.Cost, butterfly[st.Index])
					}
					sum += butterfly[st.Index]
				})
				if next != len(sels) {
					t.Fatalf("%s: %d of %d selections matched a walk index", prog, next, len(sels))
				}
				if got := cost.OfTermAuto(prog, params); got != auto || got != sum {
					t.Fatalf("%s at %+v: OfTermAuto %g, portfolio walk %g, Σ selections+butterfly %g", prog, params, got, auto, sum)
				}
				// Up to rounding: the portfolio prices its butterfly candidate
				// through equation (16), the walk through the arity/cost
				// generalization of it — equal reals, different expressions.
				bf := cost.OfTerm(prog, params) * (1 + 1e-12)
				if auto > bf || cost.Floor(prog, params) > bf {
					t.Fatalf("%s at %+v: auto %g, floor %g exceed butterfly %g", prog, params, auto, cost.Floor(prog, params), bf)
				}
			}
		}
	}
}

// TestForTermAllocs: the selection list is allocated once, at the first
// eligible stage and for every stage left — none for a program without an
// eligible stage, where presizing the list cost the zero-application plan
// miss an allocation, and one however many stages are eligible.
func TestForTermAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime moves the walk's visitor to the heap")
	}
	params := cost.Params{Ts: 1000, Tw: 1, M: 64, P: 64} // the daemon's machine
	rng := rand.New(rand.NewSource(3))
	counts := map[int]int{} // programs by their number of selections, capped at 2
	for len(counts) < 3 || counts[0] < 50 || counts[1] < 50 || counts[2] < 50 {
		prog := rules.RandProgram(rng, 12)
		n := len(ForTerm(prog, params))
		want := float64(min(n, 1))
		if got := testing.AllocsPerRun(5, func() { ForTerm(prog, params) }); got != want {
			t.Fatalf("ForTerm(%s) with %d selections allocates %.0f times, want %.0f", prog, n, got, want)
		}
		counts[min(n, 2)]++
	}
	t.Logf("programs by selections (0, 1, 2 or more): %d, %d, %d", counts[0], counts[1], counts[2])
}
