// Package golden is what the recorded-rows tests share: the -update flag,
// the compare-or-record loop over a testdata file and the encoding of a
// result's bits that rows hash.
package golden

import (
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/algebra"
)

// Update is the -update flag: the run records its goldens instead of
// checking them.
var Update = flag.Bool("update", false, "rewrite the testdata goldens the run selects from this tree")

// Check compares got with the rows recorded at path or, under -update,
// records them there. A row that differs from its recorded one is a
// mismatch unless same, when not nil, accepts it; the first ten mismatches
// are reported.
func Check(t testing.TB, path string, got []string, same func(i int, got, want string) bool) {
	t.Helper()
	if *Update {
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
		t.Fatalf("%s: %d rows, recorded %d", path, len(got), len(want))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] && (same == nil || !same(i, got[i], want[i])) {
			if bad++; bad <= 10 {
				t.Errorf("%s line %d:\n got  %s\n want %s", path, i+1, got[i], want[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("… and %d more", bad-10)
	}
}

// AppendBits appends v's shape and the bits of its words to b: a kind
// byte, then a length (and a matrix's rows) as 8 bytes little-endian where
// the value has one, then every float's bits; a flat tuple is the tuple it
// stands for.
func AppendBits(b []byte, v algebra.Value) []byte { return appendBits(b, v, false) }

// AppendBitsVarint is AppendBits with lengths as uvarints, and a value
// AppendBits has no case for, a matrix included, as its Go type and text:
// the encoding package rules' testdata/eval.golden was recorded in.
func AppendBitsVarint(b []byte, v algebra.Value) []byte { return appendBits(b, v, true) }

func appendBits(b []byte, v algebra.Value, varint bool) []byte {
	n := func(b []byte, k int) []byte {
		if varint {
			return binary.AppendUvarint(b, uint64(k))
		}
		return binary.LittleEndian.AppendUint64(b, uint64(k))
	}
	floats := func(b []byte, xs []float64) []byte {
		b = n(b, len(xs))
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	switch x := algebra.Boxed(v).(type) {
	case algebra.Undef:
		return append(b, '_')
	case algebra.Scalar:
		return binary.LittleEndian.AppendUint64(append(b, 's'), math.Float64bits(float64(x)))
	case algebra.Vec:
		return floats(append(b, 'v'), x)
	case algebra.Mat:
		if !varint {
			return floats(binary.LittleEndian.AppendUint64(append(b, 'M'), uint64(x.R)), x.Data)
		}
	case algebra.Tuple:
		b = n(append(b, 't'), len(x))
		for _, c := range x {
			b = appendBits(b, c, varint)
		}
		return b
	}
	if varint {
		return fmt.Appendf(b, "%T %v", v, v)
	}
	panic(fmt.Sprintf("golden: no encoding of %T", v))
}
