package mpbackend

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/rank"
)

// decodeBudget is what decoding input bytes may allocate: the largest
// expansion is a tuple of Undefs (one byte on the wire, one 16-byte
// interface in memory), the inbox doubles as it grows, and the inbox's
// first buffer and one error value are the constant.
func decodeBudget(input int) uint64 { return uint64(32*input) + 16<<10 }

// deliver puts data into the inbox the way the link does: into space(), as
// much as fits at a time. It reports whether pending bytes moved to the
// front of the buffer and whether the buffer grew around pending bytes.
func deliver(in *inbox, data []byte) (compacted, grew bool) {
	for len(data) > 0 {
		r, size := in.r, len(in.buf)
		n := copy(in.space(), data)
		compacted = compacted || r > 0 && in.r == 0 && in.w > 0
		grew = grew || len(in.buf) > size && in.w > 0
		in.w += n
		data = data[n:]
	}
	return compacted, grew
}

// decodeStream is a link's receive side without the socket: data arrives in
// chunks of the given sizes, taken in turn (all at once if there are none),
// and every frame is decoded into a as soon as it is complete. It returns
// the packets up to the first error; a stream that ends inside a frame ends
// in io.ErrUnexpectedEOF.
func decodeStream(in *inbox, a *algebra.Arena, data []byte, sizes ...int) (pkts []rank.Packet, err error) {
	for i := 0; ; i++ {
		for {
			pkt, ok, err := in.next(a)
			if err != nil {
				return pkts, err
			}
			if !ok {
				break
			}
			pkts = append(pkts, pkt)
		}
		if len(data) == 0 {
			if in.r != in.w {
				return pkts, io.ErrUnexpectedEOF
			}
			return pkts, nil
		}
		n := len(data)
		if len(sizes) > 0 {
			n = min(n, max(sizes[i%len(sizes)], 1))
		}
		deliver(in, data[:n])
		data = data[n:]
	}
}

// encodePackets is the stream that delivers pkts.
func encodePackets(pkts []rank.Packet) []byte {
	var out []byte
	for _, pkt := range pkts {
		out = appendFrame(out, pkt.Tag, pkt.Owned, pkt.Value)
	}
	return out
}

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
		got := allocated(func() { _, err = decodeStream(new(inbox), nil, c.frame) })
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

// TestInboxChunking: how a stream is cut into reads is the kernel's
// business — byte by byte, a header split from its body, several frames in
// one read, a frame that arrives while the buffer grows or while pending
// bytes move to its front — and the packets are the same as when it arrives
// whole.
func TestInboxChunking(t *testing.T) {
	var pkts []rank.Packet
	for i, v := range wireValues() {
		pkts = append(pkts, rank.Packet{Value: v, Tag: i - 3, Owned: i%2 == 1})
		if i%3 == 0 { // a frame larger than the inbox starts out
			pkts = append(pkts, rank.Packet{Value: SeededBlock(rand.New(rand.NewSource(int64(i))), 700*(i+1)), Tag: 1 << 40})
		}
	}
	stream := encodePackets(pkts)
	first := len(appendFrame(nil, pkts[0].Tag, pkts[0].Owned, pkts[0].Value))
	for name, sizes := range map[string][]int{
		"whole":                {},
		"byte by byte":         {1},
		"header, then body":    {4, first - 4},
		"two frames at once":   {first + len(appendFrame(nil, pkts[1].Tag, false, pkts[1].Value))},
		"odd sizes":            {3, 5000, 1, 9, 2900, 13000},
		"just under a buffer":  {4<<10 - 1},
		"three thousand bytes": {3000},
	} {
		got, err := decodeStream(new(inbox), nil, stream, sizes...)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !bytes.Equal(encodePackets(got), stream) {
			t.Errorf("%s: %d packets that are not the %d sent", name, len(got), len(pkts))
		}
	}
	// The last two cases, on what they claim to cross.
	var in inbox
	big := appendFrame(nil, 7, false, SeededBlock(rand.New(rand.NewSource(1)), 700))
	small := appendFrame(nil, 8, false, algebra.Vec{1, 2, 3})
	deliver(&in, big[:3000])
	if compacted, grew := deliver(&in, cat(big[3000:], small, big[:3000])); compacted || !grew {
		t.Fatalf("the rest of a 5.6 kB frame behind its first 3000 bytes: compacted %v, grew %v", compacted, grew)
	}
	for want := 7; want <= 8; want++ {
		if pkt, ok, err := in.next(nil); !ok || err != nil || pkt.Tag != want {
			t.Fatalf("frame %d: tag %d, ok %v, error %v", want, pkt.Tag, ok, err)
		}
	}
	size := len(in.buf)
	if compacted, grew := deliver(&in, big[3000:]); !compacted || grew || len(in.buf) != size {
		t.Fatalf("the rest of a frame whose start sits at the buffer's end: compacted %v, grew %v", compacted, grew)
	}
	if pkt, ok, err := in.next(nil); !ok || err != nil || !algebra.Equal(pkt.Value, SeededBlock(rand.New(rand.NewSource(1)), 700)) {
		t.Fatalf("the frame that crossed the compaction: ok %v, error %v", ok, err)
	}
	if in.r != 0 || in.w != 0 {
		t.Fatalf("an emptied inbox restarts at its front, not at %d:%d", in.r, in.w)
	}
}

// FuzzReadFrame feeds the inbox parser arbitrary byte streams. It may
// refuse them, but not panic, and not allocate beyond decodeBudget; and
// whatever it does decode must survive the wire bit for bit: encoded again,
// decoded again and encoded a third time, the bytes are the same — and the
// same again when the stream arrives byte by byte, or in chunks whose sizes
// are the stream's own bytes. The seeds are a frame of every value kind,
// each checked to come back as the value that went in.
func FuzzReadFrame(f *testing.F) {
	for i, v := range wireValues() {
		frame := appendFrame(nil, i-3, i%2 == 1, v)
		back, err := decodeStream(new(inbox), nil, frame)
		if err != nil || len(back) != 1 || back[0].Tag != i-3 || back[0].Owned != (i%2 == 1) {
			f.Fatalf("%T: round trip gave %v, error %v", v, back, err)
		}
		// The encoding names the kind and holds every float's bits, so
		// equal bytes are equal values.
		if !bytes.Equal(appendValue(nil, back[0].Value), appendValue(nil, v)) {
			f.Fatalf("%T: %v came back as %v", v, v, back[0].Value)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)-1])
		f.Add(append(frame[:len(frame):len(frame)], frame...))
	}
	f.Add(cat(u32(1<<30), make([]byte, 10)))
	f.Add(frameOf(cat([]byte{kindTuple}, u32(1<<28))))

	// warm is one arena every input is decoded into a second time, as a
	// rank's Take decodes into its arena, with a Reset between inputs.
	warm := new(algebra.Arena)
	f.Fuzz(func(t *testing.T, data []byte) {
		var decoded []rank.Packet
		var whole error
		got := allocated(func() { decoded, whole = decodeStream(new(inbox), nil, data) })
		if budget := decodeBudget(len(data)); got > budget {
			t.Fatalf("decoding %d bytes allocated %d (budget %d)", len(data), got, budget)
		}
		stream := encodePackets(decoded)
		warm.Reset()
		pooled, err := decodeStream(new(inbox), warm, data)
		if (err == nil) != (whole == nil) || !bytes.Equal(encodePackets(pooled), stream) {
			t.Fatalf("into a warm arena: %d packets, error %v; without one: %d packets, error %v",
				len(pooled), err, len(decoded), whole)
		}
		again, err := decodeStream(new(inbox), nil, stream)
		if err != nil || !bytes.Equal(encodePackets(again), stream) {
			t.Fatalf("%d decoded packets changed on their second trip over the wire (error %v):\n%x\n%x",
				len(decoded), err, stream, encodePackets(again))
		}
		sizes := make([]int, len(data))
		for i, b := range data {
			sizes[i] = int(b)
		}
		for _, sizes := range [][]int{{1}, sizes} {
			chunked, err := decodeStream(new(inbox), nil, data, sizes...)
			if (err == nil) != (whole == nil) || !bytes.Equal(encodePackets(chunked), stream) {
				t.Fatalf("in chunks of %v: %d packets, error %v; whole: %d packets, error %v",
					sizes, len(chunked), err, len(decoded), whole)
			}
		}
	})
}
