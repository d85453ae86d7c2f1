package exper

import (
	"testing"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/mpbackend"
)

func TestNativeRunnerMeasuresWallClock(t *testing.T) {
	run := NativeHost(backend.TransportZeroCopy, 3).Run
	prog := core.NewProgram().Bcast().Scan(algebra.Add)
	in := mpbackend.SeededInputs(2, 4, 8)
	ns := run(prog, core.Machine{P: 4}, in)
	if ns <= 0 {
		t.Fatalf("native measurement = %g ns, want > 0", ns)
	}
}

func TestSweepRulesSkipsLocalRulesOnNonPow2(t *testing.T) {
	groups, err := SweepRules(NativeHost(backend.TransportZeroCopy, 1).Run, core.Machine{P: 6}, []int{1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range groups {
		switch g.Rule {
		case "BR-Local", "BSR2-Local", "BSR-Local", "CR-AllLocal":
			t.Fatalf("Local rule %s measured on p=6", g.Rule)
		}
		if len(g.LhsT) != 1 || g.LhsT[0] <= 0 || g.RhsT[0] <= 0 {
			t.Errorf("%s: sweep %v / %v, want one positive time per side", g.Rule, g.LhsT, g.RhsT)
		}
	}
	if len(groups) == 0 {
		t.Fatal("non-Local rules should still be measured")
	}
}

func TestTable1OnNative(t *testing.T) {
	mach := core.Machine{Ts: 100, Tw: 1, P: 4, M: 4}
	rows := Table1(mach, true, NativeHost(backend.TransportCopy, 2).Run)
	if len(rows) != 11 {
		t.Fatalf("got %d rows, want 11", len(rows))
	}
	for _, r := range rows {
		if r.MeasBefore <= 0 || r.MeasAfter <= 0 {
			t.Fatalf("%s: native measurements %g/%g, want > 0", r.Rule, r.MeasBefore, r.MeasAfter)
		}
	}
}
