package mpbackend

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/rank"
)

// Wire format. Every message is one length-prefixed frame:
//
//	u32 length of the rest | i64 tag | u8 owned | value
//
// and a value is a kind byte followed by its payload:
//
//	0 Undef
//	1 Scalar:    f64
//	2 Vec:       u32 n | n × f64
//	3 FlatTuple: u32 w | u32 len(Data) | len × f64
//	4 Tuple:     u32 n | n × value
//	5 Mat:       u32 r | u32 c | r·c × f64
//	6 ValueList: u32 n | n × value (coll's gather/scatter chunks)
//
// Integers are little-endian; floats are in host byte order, because a
// block of them goes onto the wire and comes off it as one copy of its
// memory, not word by word — the ranks of a job are one executable on one
// host, so both ends of every link agree. The codec covers exactly the
// value algebra of package algebra; an unknown Value type is a programming
// error and panics at the send site with the offending type named, so a
// new value kind fails loudly instead of deadlocking a remote rank.
// Encoding and decoding are where the multi-process transport pays the
// per-word cost the cost model calls tw — the deep copy the in-process
// backends can elide is mandatory here.
//
// A decoder trusts no size it reads: before it allocates for a claimed
// count it checks the count against the bytes the frame still holds, net
// of what the values still to come need at the least, so decoding
// allocates no more than a small multiple of the bytes it was given. Vec
// and FlatTuple blocks are decoded into buffers of the arena it is handed
// (fresh storage under a nil one).

const (
	kindUndef byte = iota
	kindScalar
	kindVec
	kindFlat
	kindTuple
	kindMat
	kindList
)

// appendValue serializes v onto buf.
func appendValue(buf []byte, v algebra.Value) []byte {
	switch x := v.(type) {
	case algebra.Undef:
		return append(buf, kindUndef)
	case algebra.Scalar:
		buf = append(buf, kindScalar)
		return binary.NativeEndian.AppendUint64(buf, math.Float64bits(float64(x)))
	case algebra.Vec:
		buf = append(buf, kindVec)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
		return appendFloats(buf, x)
	case *algebra.FlatTuple:
		buf = append(buf, kindFlat)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x.W))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x.Data)))
		return appendFloats(buf, x.Data)
	case algebra.Tuple:
		buf = append(buf, kindTuple)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
		for _, c := range x {
			buf = appendValue(buf, c)
		}
		return buf
	case algebra.Mat:
		buf = append(buf, kindMat)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x.R))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x.C))
		return appendFloats(buf, x.Data)
	case coll.ValueList:
		buf = append(buf, kindList)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(x)))
		for _, c := range x {
			buf = appendValue(buf, c)
		}
		return buf
	}
	panic(fmt.Sprintf("mpbackend: cannot serialize a %T across process boundaries", v))
}

// floatBytes is the memory of fs, viewed as bytes.
func floatBytes(fs []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(fs))), 8*len(fs))
}

func appendFloats(buf []byte, fs []float64) []byte {
	return append(buf, floatBytes(fs)...)
}

// maxDepth bounds how deep tuples and lists may nest in a frame, and with
// it the decoder's recursion; the values of this algebra nest three or
// four deep.
const maxDepth = 32

// readValue deserializes one value from buf, returning the remainder.
func readValue(buf []byte, a *algebra.Arena) (algebra.Value, []byte, error) {
	return readNested(buf, a, 0, 0)
}

// readNested is readValue for a value depth levels inside tuples or lists
// whose remaining elements will need at least reserved of buf's bytes.
func readNested(buf []byte, a *algebra.Arena, reserved, depth int) (algebra.Value, []byte, error) {
	if len(buf) < 1 {
		return nil, nil, fmt.Errorf("truncated value")
	}
	kind := buf[0]
	buf = buf[1:]
	switch kind {
	case kindUndef:
		return algebra.Undef{}, buf, nil
	case kindScalar:
		if len(buf) < 8 {
			return nil, nil, fmt.Errorf("truncated scalar")
		}
		s := algebra.Scalar(math.Float64frombits(binary.NativeEndian.Uint64(buf)))
		return s, buf[8:], nil
	case kindVec:
		n, rest, err := readLen(buf, "vec")
		if err != nil {
			return nil, nil, err
		}
		data, rest, err := floatsOf(rest, n, reserved, "vec")
		if err != nil {
			return nil, nil, err
		}
		v := a.Vec(n)
		copy(floatBytes(v.(algebra.Vec)), data)
		return v, rest, nil
	case kindFlat:
		w, rest, err := readLen(buf, "flat tuple")
		if err != nil {
			return nil, nil, err
		}
		n, rest, err := readLen(rest, "flat tuple")
		if err != nil {
			return nil, nil, err
		}
		if w < 1 || n < w || n%w != 0 {
			return nil, nil, fmt.Errorf("flat tuple of %d words in %d components", n, w)
		}
		data, rest, err := floatsOf(rest, n, reserved, "flat tuple")
		if err != nil {
			return nil, nil, err
		}
		ft := a.Flat(w, n/w)
		copy(floatBytes(ft.Data), data)
		return ft, rest, nil
	case kindMat:
		r, rest, err := readLen(buf, "matrix")
		if err != nil {
			return nil, nil, err
		}
		c, rest, err := readLen(rest, "matrix")
		if err != nil {
			return nil, nil, err
		}
		data, rest, err := floatsOf(rest, r*c, reserved, "matrix")
		if err != nil {
			return nil, nil, err
		}
		mat := algebra.Mat{R: r, C: c, Data: make([]float64, r*c)}
		copy(floatBytes(mat.Data), data)
		return mat, rest, nil
	case kindTuple, kindList:
		what := "tuple"
		if kind == kindList {
			what = "value list"
		}
		n, rest, err := readLen(buf, what)
		if err != nil {
			return nil, nil, err
		}
		// Every element is at least its kind byte.
		if n > len(rest)-reserved {
			return nil, nil, fmt.Errorf("truncated %s: %d elements in %d bytes", what, n, len(rest)-reserved)
		}
		if depth == maxDepth {
			return nil, nil, fmt.Errorf("%s nested deeper than %d", what, maxDepth)
		}
		elems := make([]algebra.Value, n)
		for i := range elems {
			elems[i], rest, err = readNested(rest, a, reserved+n-1-i, depth+1)
			if err != nil {
				return nil, nil, err
			}
		}
		if kind == kindList {
			return coll.ValueList(elems), rest, nil
		}
		return algebra.Tuple(elems), rest, nil
	}
	return nil, nil, fmt.Errorf("unknown value kind %d", kind)
}

func readLen(buf []byte, what string) (int, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("truncated %s header", what)
	}
	n := binary.LittleEndian.Uint32(buf)
	if n > 1<<28 {
		return 0, nil, fmt.Errorf("implausible %s size %d", what, n)
	}
	return int(n), buf[4:], nil
}

// floatsOf splits the bytes of n floats off the front of buf, once it has
// seen that buf holds them besides the reserved bytes — so the caller
// allocates for n only when n words were sent.
func floatsOf(buf []byte, n, reserved int, what string) (data, rest []byte, err error) {
	if n > (len(buf)-reserved)/8 {
		return nil, nil, fmt.Errorf("truncated %s payload", what)
	}
	return buf[:8*n], buf[8*n:], nil
}

// appendFrame serializes a tagged message onto buf, length prefix
// included.
func appendFrame(buf []byte, tag int, owned bool, v algebra.Value) []byte {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // length back-patched below
	buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(tag)))
	if owned {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = appendValue(buf, v)
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}

// inbox is the receiving end of one link: the socket, the bytes the peer
// has sent and this rank has not decoded yet — buf[r:w], frames back to
// back, the last possibly incomplete — and why the link stopped delivering,
// once it has. The buffer grows as bytes arrive, never to the length a
// header claims, and every decoded value is copied out of it.
type inbox struct {
	fd   int
	buf  []byte
	r, w int
	err  error
}

// space is the free tail of the buffer, where the next bytes go; in.w += n
// commits them. A tail under half the buffer is first widened by moving the
// pending bytes to the front, then by doubling.
func (in *inbox) space() []byte {
	if in.r > 0 && len(in.buf)-in.w <= len(in.buf)/2 {
		in.w = copy(in.buf, in.buf[in.r:in.w])
		in.r = 0
	}
	if len(in.buf)-in.w <= len(in.buf)/2 {
		in.buf = append(in.buf, make([]byte, max(len(in.buf), 4<<10))...)
	}
	return in.buf[in.w:]
}

// next decodes the inbox's first frame, if all of it has arrived; ok is
// false while more bytes are needed. A frame that cannot be decoded is an
// error and stays where it is: the stream behind it has no meaning.
func (in *inbox) next(a *algebra.Arena) (pkt rank.Packet, ok bool, err error) {
	pending := in.buf[in.r:in.w]
	if len(pending) < 4 {
		return pkt, false, nil
	}
	n := binary.LittleEndian.Uint32(pending)
	if n < 9 || n > 1<<30 {
		return pkt, false, fmt.Errorf("implausible frame length %d", n)
	}
	if len(pending)-4 < int(n) {
		return pkt, false, nil
	}
	body := pending[4 : 4+n]
	v, rest, err := readValue(body[9:], a)
	if err != nil {
		return pkt, false, err
	}
	if len(rest) != 0 {
		return pkt, false, fmt.Errorf("%d trailing bytes after value", len(rest))
	}
	if in.r += 4 + len(body); in.r == in.w {
		in.r, in.w = 0, 0
	}
	return rank.Packet{Value: v, Tag: int(int64(binary.LittleEndian.Uint64(body))), Owned: body[8] != 0}, true, nil
}
