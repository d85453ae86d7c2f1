package exper

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/mpbackend"
)

var update = flag.Bool("update", false, "rewrite testdata/table1_virtual.golden from this tree")

// appendBits appends v's shape and the bits of its entries to b.
func appendBits(b []byte, v algebra.Value) []byte {
	word := func(x uint64) { b = binary.LittleEndian.AppendUint64(b, x) }
	switch x := v.(type) {
	case algebra.Scalar:
		b = append(b, 's')
		word(math.Float64bits(float64(x)))
	case algebra.Vec:
		b = append(b, 'v')
		word(uint64(len(x)))
		for _, f := range x {
			word(math.Float64bits(f))
		}
	case algebra.Undef:
		b = append(b, '_')
	case algebra.Tuple:
		b = append(b, 't')
		word(uint64(len(x)))
		for _, c := range x {
			b = appendBits(b, c)
		}
	default:
		panic(fmt.Sprintf("appendBits: %T", v))
	}
	return b
}

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
							h.Write(appendBits(nil, v))
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
	const path = "testdata/table1_virtual.golden"
	got := table1VirtualLines()
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
