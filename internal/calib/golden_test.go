package calib

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
)

// update rewrites testdata/coef.golden from the tree under test. The
// committed file was recorded at the commit before Coef read its counts
// from package cost; its 26 scan rows with fewer workers than ranks were
// re-recorded when a scan's last phase became one-way, which moved their
// start-ups and words.
var update = flag.Bool("update", false, "rewrite testdata/coef.golden from this tree")

// TestCoefMatchesRecorded: every probe kind × p ∈ 1…9 × workers ∈
// {0, 1, 4, 16} × m ∈ {1, 64} charges exactly the coefficients
// testdata/coef.golden holds.
func TestCoefMatchesRecorded(t *testing.T) {
	const path = "testdata/coef.golden"
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
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("row %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}
