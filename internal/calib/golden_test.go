package calib

import (
	"fmt"
	"strconv"
	"testing"

	"repro/internal/golden"
)

// TestCoefMatchesRecorded: every probe kind × p ∈ 1…9 × workers ∈
// {0, 1, 4, 16} × m ∈ {1, 64} charges exactly the coefficients
// testdata/coef.golden holds.
func TestCoefMatchesRecorded(t *testing.T) {
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var got []string
	for _, probe := range []string{ProbePingPong, ProbeCompute, ProbeBcast, ProbeReduce, ProbeScan} {
		for p := 1; p <= 9; p++ {
			for _, workers := range []int{0, 1, 4, 16} {
				for _, m := range []int{1, 64} {
					a, b, c := Coef(probe, p, m, 3, workers)
					got = append(got, fmt.Sprintf("%s p=%d workers=%d m=%d %s %s %s", probe, p, workers, m, g(a), g(b), g(c)))
				}
			}
		}
	}
	golden.Check(t, "testdata/coef.golden", got, nil)
}
