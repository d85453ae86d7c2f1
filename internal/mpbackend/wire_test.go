package mpbackend

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"runtime"
	"testing"

	"repro/internal/algebra"
	"repro/internal/coll"
)

// decodeBudget is what decoding input bytes may allocate: the largest
// expansion is a tuple of Undefs (one byte on the wire, one 16-byte
// interface in memory), the frame buffer doubles as it grows, and the
// reader's own buffers and one error value are the constant.
func decodeBudget(input int) uint64 { return uint64(32*input) + 16<<10 }

// allocated is the number of bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// frameOf wraps a value's bytes in a frame header with tag 1.
func frameOf(value []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(9+len(value)))
	f = binary.LittleEndian.AppendUint64(f, 1)
	f = append(f, 0)
	return append(f, value...)
}

func u32(n int) []byte { return binary.LittleEndian.AppendUint32(nil, uint32(n)) }

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// TestReadValueChecksBeforeAllocating: a size read off the wire is a claim.
// Every case is a few bytes demanding gigabytes; the decoder must refuse
// each for what it is, having allocated next to nothing.
func TestReadValueChecksBeforeAllocating(t *testing.T) {
	const huge = 1 << 28
	// A tuple of tuples of … each claiming every byte that is left: no
	// level alone exceeds the frame, all of them together would square it.
	greedy := []byte{kindUndef}
	for len(greedy) < 4<<10 {
		greedy = cat([]byte{kindTuple}, u32(len(greedy)), greedy)
	}
	deep := []byte{kindUndef}
	for i := 0; i <= maxDepth; i++ {
		deep = cat([]byte{kindTuple}, u32(1), deep)
	}
	cases := []struct {
		name  string
		frame []byte
	}{
		{"vec", frameOf(cat([]byte{kindVec}, u32(huge)))},
		{"vec with one word", frameOf(cat([]byte{kindVec}, u32(huge), make([]byte, 8)))},
		{"flat tuple", frameOf(cat([]byte{kindFlat}, u32(4), u32(huge)))},
		{"matrix", frameOf(cat([]byte{kindMat}, u32(1<<14), u32(1<<14)))},
		{"tuple", frameOf(cat([]byte{kindTuple}, u32(huge)))},
		{"value list", frameOf(cat([]byte{kindList}, u32(huge), []byte{kindUndef}))},
		{"vec inside a tuple that still needs its bytes", frameOf(cat(
			[]byte{kindTuple}, u32(9), []byte{kindVec}, u32(1), make([]byte, 8)))},
		{"greedy nesting", frameOf(greedy)},
		{"nesting past maxDepth", frameOf(deep)},
		{"frame length", cat(u32(1<<30), make([]byte, 10))},
	}
	for _, c := range cases {
		var err error
		got := allocated(func() { _, _, _, err = newFrameReader(bytes.NewReader(c.frame)).next() })
		if err == nil {
			t.Errorf("%s: decoded without error", c.name)
		}
		if budget := decodeBudget(len(c.frame)); got > budget {
			t.Errorf("%s: a %d-byte frame made the decoder allocate %d bytes (budget %d) before failing with %q",
				c.name, len(c.frame), got, budget, err)
		}
	}
}

// wireValues is one value of every kind the codec carries, with the floats
// a word-by-word conversion could mangle.
func wireValues() []algebra.Value {
	odd := []float64{math.NaN(), math.Float64frombits(0x7ff4000000000123), math.Copysign(0, -1),
		math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64, 1.5, 0}
	return []algebra.Value{
		algebra.Undef{},
		algebra.Scalar(math.Copysign(0, -1)),
		algebra.Scalar(math.NaN()),
		algebra.Vec(odd),
		algebra.Vec{},
		&algebra.FlatTuple{W: 4, Data: odd},
		algebra.Tuple{algebra.Scalar(1), algebra.Vec(odd[:3]), algebra.Undef{}, algebra.Tuple{}},
		algebra.Mat{R: 2, C: 4, Data: odd},
		coll.ValueList{algebra.Vec(odd[:2]), &algebra.FlatTuple{W: 1, Data: odd[:1]}, coll.ValueList{}},
	}
}

// FuzzReadFrame feeds the frame reader arbitrary byte streams. It may
// refuse them, but not panic, and not allocate beyond decodeBudget; and
// whatever it does decode must survive the wire bit for bit: encoded again,
// decoded again and encoded a third time, the bytes are the same. The
// seeds are a frame of every value kind, each checked to come back as the
// value that went in.
func FuzzReadFrame(f *testing.F) {
	for i, v := range wireValues() {
		frame := appendFrame(nil, i-3, i%2 == 1, v)
		tag, owned, back, err := newFrameReader(bytes.NewReader(frame)).next()
		if err != nil || tag != i-3 || owned != (i%2 == 1) {
			f.Fatalf("%T: round trip gave tag %d, owned %v, error %v", v, tag, owned, err)
		}
		// The encoding names the kind and holds every float's bits, so
		// equal bytes are equal values.
		if !bytes.Equal(appendValue(nil, back), appendValue(nil, v)) {
			f.Fatalf("%T: %v came back as %v", v, v, back)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
		f.Add(append(frame[:len(frame):len(frame)], frame...))
	}
	f.Add(cat(u32(1<<30), make([]byte, 10)))
	f.Add(frameOf(cat([]byte{kindTuple}, u32(1<<28))))

	f.Fuzz(func(t *testing.T, data []byte) {
		type frame struct {
			tag   int
			owned bool
			v     algebra.Value
		}
		var decoded []frame
		got := allocated(func() {
			fr := newFrameReader(bytes.NewReader(data))
			for {
				tag, owned, v, err := fr.next()
				if err != nil {
					return
				}
				decoded = append(decoded, frame{tag, owned, v})
			}
		})
		if budget := decodeBudget(len(data)); got > budget {
			t.Fatalf("decoding %d bytes allocated %d (budget %d)", len(data), got, budget)
		}
		for _, d := range decoded {
			enc := appendFrame(nil, d.tag, d.owned, d.v)
			fr := newFrameReader(bytes.NewReader(enc))
			tag, owned, v, err := fr.next()
			if err != nil || tag != d.tag || owned != d.owned {
				t.Fatalf("re-reading a decoded %T: tag %d (want %d), owned %v (want %v), error %v",
					d.v, tag, d.tag, owned, d.owned, err)
			}
			if again := appendFrame(nil, tag, owned, v); !bytes.Equal(again, enc) {
				t.Fatalf("a decoded %T changed on its second trip over the wire:\n%x\n%x", d.v, enc, again)
			}
			if _, _, _, err := fr.next(); err != io.EOF {
				t.Fatalf("after the only frame: %v, want io.EOF", err)
			}
		}
	})
}
