package exper

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/golden"
	"repro/internal/mpbackend"
)

// table1VirtualLines runs both sides of every Table 1 rule on the virtual
// machine at tw = 1: p ∈ 2..16 × m ∈ {1, 16, 256, 4096} × ts ∈ {1, 100,
// 1000}, skipping the p a rule does not apply at. A row holds the
// makespan and a sha256 over every rank's result bits.
func table1VirtualLines() []string {
	var lines []string
	for _, pat := range Patterns() {
		for p := 2; p <= 16; p++ {
			lhs, rhs, err := RulePair(pat.Rule, p)
			if err != nil {
				continue
			}
			for _, m := range []int{1, 16, 256, 4096} {
				in := mpbackend.SeededInputs(int64(p*10007+m), p, m)
				for _, ts := range []float64{1, 100, 1000} {
					for _, side := range []struct {
						name string
						prog core.Program
					}{{"lhs", lhs}, {"rhs", rhs}} {
						out, res := side.prog.Run(core.Machine{Ts: ts, Tw: 1, P: p, M: m}, in)
						h := sha256.New()
						for _, v := range out {
							h.Write(golden.AppendBits(nil, v))
						}
						lines = append(lines, fmt.Sprintf("%s %s p=%d m=%d ts=%g makespan=%g results=%x",
							pat.Rule, side.name, p, m, ts, res.Makespan, h.Sum(nil)))
					}
				}
			}
		}
	}
	return lines
}

// TestTable1VirtualRecorded: every Table 1 rule side takes the virtual
// time and returns the bits it did when a scan's last phase was an
// exchange (testdata/table1_virtual.golden, recorded from that code), so
// a change to a schedule that the price does not see shows here.
func TestTable1VirtualRecorded(t *testing.T) {
	golden.Check(t, "testdata/table1_virtual.golden", table1VirtualLines(), nil)
}
