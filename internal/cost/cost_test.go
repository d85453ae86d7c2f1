package cost

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/term"
)

func params(ts, tw float64, m, p int) Params {
	return Params{Ts: ts, Tw: tw, M: m, P: p}
}

func pathOf(path, _ Line) Line { return path }

func TestLogP(t *testing.T) {
	cases := []struct {
		p    int
		want float64
	}{
		{1, 0}, {2, 1}, {4, 2}, {8, 3}, {6, 3}, {64, 6}, {100, 7},
	}
	for _, c := range cases {
		if got := (Params{P: c.p}).LogP(); got != c.want {
			t.Errorf("LogP(%d) = %g, want %g", c.p, got, c.want)
		}
	}
}

func TestCollectiveFormulas(t *testing.T) {
	p := params(100, 2, 16, 8)
	// Equations (15)–(17) with log p = 3, m = 16.
	if got, want := pathOf(BcastLine(p)).At(p), 3*(100+16*2.0); got != want {
		t.Errorf("Bcast = %g, want %g", got, want)
	}
	if got, want := pathOf(ReduceLine(p)).At(p), 3*(100+16*3.0); got != want {
		t.Errorf("Reduce = %g, want %g", got, want)
	}
	if got, want := pathOf(ScanLine(p)).At(p), 3*(100+16*4.0); got != want {
		t.Errorf("Scan = %g, want %g", got, want)
	}
}

func TestOfTermMatchesCollectiveFormulas(t *testing.T) {
	p := params(50, 3, 32, 16)
	if got := OfTerm(term.Bcast{}, p); got != pathOf(BcastLine(p)).At(p) {
		t.Errorf("OfTerm(bcast) = %g, want %g", got, pathOf(BcastLine(p)).At(p))
	}
	if got := OfTerm(term.Reduce{Op: algebra.Add}, p); got != pathOf(ReduceLine(p)).At(p) {
		t.Errorf("OfTerm(reduce) = %g, want %g", got, pathOf(ReduceLine(p)).At(p))
	}
	if got := OfTerm(term.Scan{Op: algebra.Add}, p); got != pathOf(ScanLine(p)).At(p) {
		t.Errorf("OfTerm(scan) = %g, want %g", got, pathOf(ScanLine(p)).At(p))
	}
}

func TestOfTermSumsStages(t *testing.T) {
	p := params(50, 3, 32, 16)
	seq := term.Seq{term.Bcast{}, term.Scan{Op: algebra.Add}}
	if got, want := OfTerm(seq, p), pathOf(BcastLine(p)).At(p)+pathOf(ScanLine(p)).At(p); got != want {
		t.Errorf("OfTerm(seq) = %g, want %g", got, want)
	}
}

func TestOfTermDerivedOperators(t *testing.T) {
	p := params(100, 2, 8, 4) // log p = 2, m = 8
	logp, m := 2.0, 8.0

	// reduce(op_sr2): ts + 2m·tw + 3m per phase.
	sr2 := algebra.OpSR2(algebra.Mul, algebra.Add)
	got := OfTerm(term.Reduce{Op: sr2}, p)
	want := logp * (100 + 2*m*2 + 3*m)
	if got != want {
		t.Errorf("reduce(op_sr2) = %g, want %g", got, want)
	}

	// scan(op_sr2): ts + 2m·tw + 6m per phase.
	got = OfTerm(term.Scan{Op: sr2}, p)
	want = logp * (100 + 2*m*2 + 6*m)
	if got != want {
		t.Errorf("scan(op_sr2) = %g, want %g", got, want)
	}

	// reduce_balanced(op_sr): ts + 2m·tw + 4m per phase.
	sr := algebra.OpSR(algebra.Add)
	got = OfTerm(term.Reduce{Op: sr, Balanced: true}, p)
	want = logp * (100 + 2*m*2 + 4*m)
	if got != want {
		t.Errorf("reduce_balanced(op_sr) = %g, want %g", got, want)
	}

	// scan_balanced(op_ss): ts + 3m·tw + 8m per phase.
	ss := algebra.OpSS(algebra.Add)
	got = OfTerm(term.ScanBal{Op: ss}, p)
	want = logp * (100 + 3*m*2 + 8*m)
	if got != want {
		t.Errorf("scan_balanced(op_ss) = %g, want %g", got, want)
	}

	// comcast via bcast+repeat (BS): bcast + log p · 2m.
	bs := algebra.OpCompBS(algebra.Add)
	got = OfTerm(term.Comcast{Ops: bs}, p)
	want = pathOf(BcastLine(p)).At(p) + logp*2*m
	if got != want {
		t.Errorf("comcast(bs) = %g, want %g", got, want)
	}

	// cost-optimal comcast: log p · (ts + 2m·tw + 3m).
	got = OfTerm(term.Comcast{Ops: bs, CostOptimal: true}, p)
	want = logp * (100 + 2*m*2 + 3*m)
	if got != want {
		t.Errorf("comcast(optimal) = %g, want %g", got, want)
	}

	// iter(op_br): log p · m.
	br := algebra.OpBR(algebra.Add)
	got = OfTerm(term.Iter{Op: br}, p)
	want = logp * m
	if got != want {
		t.Errorf("iter(op_br) = %g, want %g", got, want)
	}

	// map f with cost 2: 2m, no log p factor.
	f := &term.Fn{Name: "f", Cost: 2}
	got = OfTerm(term.Map{F: f}, p)
	if got != 2*m {
		t.Errorf("map f = %g, want %g", got, 2*m)
	}

	// map pair and map π₁ are free (§4.2).
	if got := OfTerm(term.Map{F: term.PairFn}, p); got != 0 {
		t.Errorf("map pair = %g, want 0", got)
	}
}

// TestOfTermTracksBlockSize: the estimator threads the per-processor
// block size through redistribution stages instead of charging the
// global Params.M everywhere. A gather leaves the root holding p·m
// words, a scatter hands back a 1/p share, and the stages in between
// are charged at the block they actually see.
func TestOfTermTracksBlockSize(t *testing.T) {
	p := params(100, 2, 16, 8)
	logp, m, pp := p.LogP(), p.m(), float64(p.P)

	// A gather;scatter round trip is charged exactly as before the
	// block tracking: p·m words through the root's link each way.
	pair := term.Seq{term.Gather{}, term.Scatter{}}
	if got, want := OfTerm(pair, p), 2*(logp*p.Ts+pp*m*p.Tw); got != want {
		t.Errorf("OfTerm(gather;scatter) = %g, want %g", got, want)
	}

	// A broadcast between gather and scatter ships the root's fused
	// p·m-word block, not m words.
	seq := term.Seq{term.Gather{}, term.Bcast{}, term.Scatter{}}
	want := (logp*p.Ts + pp*m*p.Tw) + // gather at block m
		logp*(p.Ts+pp*m*p.Tw) + // bcast at block p·m
		(logp*p.Ts + pp*m*p.Tw) // scatter of the p·m-word block
	if got := OfTerm(seq, p); got != want {
		t.Errorf("OfTerm(gather;bcast;scatter) = %g, want %g", got, want)
	}

	// A scan after a bare scatter works on m/p-word blocks.
	seq = term.Seq{term.Scatter{}, term.Scan{Op: algebra.Add}}
	small := m / pp
	want = (logp*p.Ts + m*p.Tw) + logp*(p.Ts+small*p.Tw+2*small)
	if got := OfTerm(seq, p); got != want {
		t.Errorf("OfTerm(scatter;scan) = %g, want %g", got, want)
	}

	// Local stages scale with the tracked block too.
	f := &term.Fn{Name: "f", Cost: 3}
	seq = term.Seq{term.Gather{}, term.Map{F: f}, term.Scatter{}}
	want = (logp*p.Ts + pp*m*p.Tw) + 3*pp*m + (logp*p.Ts + pp*m*p.Tw)
	if got := OfTerm(seq, p); got != want {
		t.Errorf("OfTerm(gather;map;scatter) = %g, want %g", got, want)
	}
}

// TestWalksAllocFree pins the three estimators at zero allocations on a
// dense and on a halo program: a Line is returned by value, and the plan
// search makes thousands of these calls per miss.
func TestWalksAllocFree(t *testing.T) {
	p := params(100, 2, 64, 8)
	halo := term.Halo{H: &term.Hood{Offsets: []int{-1, 1}}}
	progs := map[string]term.Term{
		"dense": term.Seq{
			term.Bcast{}, term.Scan{Op: algebra.Mul}, term.Scan{Op: algebra.Add},
			term.Map{F: &term.Fn{Name: "f", Cost: 2}}, term.Gather{}, term.Scatter{},
			term.Reduce{Op: algebra.Add}, term.Reduce{Op: algebra.Add, All: true},
			term.Comcast{Ops: algebra.OpCompBS(algebra.Add)}, term.Iter{Op: algebra.OpBR(algebra.Add)},
		},
		"halo": term.Seq{halo, term.Map{F: &term.Fn{Name: "f", Cost: 1}}, halo, term.Reduce{Op: algebra.Add}},
	}
	for name, prog := range progs {
		for walk, f := range map[string]func(term.Term, Params) float64{"OfTerm": OfTerm, "OfTermAuto": OfTermAuto, "Floor": Floor} {
			if allocs := testing.AllocsPerRun(100, func() { f(prog, p) }); allocs != 0 {
				t.Errorf("%s(%s) allocates %.0f times", walk, name, allocs)
			}
		}
	}
}
