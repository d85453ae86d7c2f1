package mpbackend

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"

	"repro/internal/algebra"
	"repro/internal/coll"
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
// allocates no more than a small multiple of the bytes it was given.

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
func readValue(buf []byte) (algebra.Value, []byte, error) {
	return readNested(buf, 0, 0)
}

// readNested is readValue for a value depth levels inside tuples or lists
// whose remaining elements will need at least reserved of buf's bytes.
func readNested(buf []byte, reserved, depth int) (algebra.Value, []byte, error) {
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
		data, rest, err := readFloats(rest, n, reserved, "vec")
		return algebra.Vec(data), rest, err
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
		data, rest, err := readFloats(rest, n, reserved, "flat tuple")
		if err != nil {
			return nil, nil, err
		}
		return &algebra.FlatTuple{W: w, Data: data}, rest, nil
	case kindMat:
		r, rest, err := readLen(buf, "matrix")
		if err != nil {
			return nil, nil, err
		}
		c, rest, err := readLen(rest, "matrix")
		if err != nil {
			return nil, nil, err
		}
		data, rest, err := readFloats(rest, r*c, reserved, "matrix")
		return algebra.Mat{R: r, C: c, Data: data}, rest, err
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
			elems[i], rest, err = readNested(rest, reserved+n-1-i, depth+1)
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

// readFloats copies n floats off the front of buf into fresh storage,
// once it has seen that buf holds them besides the reserved bytes.
func readFloats(buf []byte, n, reserved int, what string) ([]float64, []byte, error) {
	if n > (len(buf)-reserved)/8 {
		return nil, nil, fmt.Errorf("truncated %s payload", what)
	}
	fs := make([]float64, n)
	copy(floatBytes(fs), buf)
	return fs, buf[8*n:], nil
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

// frameReader decodes the frames arriving on one connection. It owns the
// connection's read side: a bufio.Reader, so a small frame's header and body
// come out of one read, and one frame buffer that grows to the largest
// frame seen and is reused, which is safe because every decoded value is
// copied out of it.
type frameReader struct {
	lim  io.LimitedReader // over the bufio.Reader; N is set per frame
	body bytes.Buffer
}

func newFrameReader(r io.Reader) *frameReader {
	return &frameReader{lim: io.LimitedReader{R: bufio.NewReader(r)}}
}

// next reads one frame, blocking until it is complete.
func (fr *frameReader) next() (tag int, owned bool, v algebra.Value, err error) {
	var hdr [4]byte
	if _, err = io.ReadFull(fr.lim.R, hdr[:]); err != nil {
		return 0, false, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n < 9 || n > 1<<30 {
		return 0, false, nil, fmt.Errorf("implausible frame length %d", n)
	}
	// The buffer grows as bytes arrive, not to the length the header
	// claims.
	fr.body.Reset()
	fr.lim.N = int64(n)
	if _, err = fr.body.ReadFrom(&fr.lim); err != nil {
		return 0, false, nil, err
	}
	body := fr.body.Bytes()
	if len(body) < int(n) {
		return 0, false, nil, io.ErrUnexpectedEOF
	}
	tag = int(int64(binary.LittleEndian.Uint64(body)))
	owned = body[8] != 0
	v, rest, err := readValue(body[9:])
	if err != nil {
		return 0, false, nil, err
	}
	if len(rest) != 0 {
		return 0, false, nil, fmt.Errorf("%d trailing bytes after value", len(rest))
	}
	return tag, owned, v, nil
}
