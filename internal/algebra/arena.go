package algebra

// Arena is the one pool of scratch buffers: a rank's on the collective hot
// path, and the evaluator's (term.Scratch embeds one). Vec, Tuple and Flat
// draw from a shelf per shape, making a buffer when the shelf is used up;
// Reset rewinds every shelf in one step, so in steady state — after the
// first cycle has filled the shelves — a cycle of the same shapes allocates
// nothing. The zero value is ready. Not safe for concurrent use.
//
// Ownership discipline (see docs/PERF.md): a buffer obtained from the
// arena is private to the rank until it is passed to Send or Exchange,
// at which point it is frozen for the rest of the run — the receiver may
// still be reading it. Reset must therefore only run at a point where no
// peer can hold a reference, which the backends guarantee by resetting at
// the start of a run: the previous run's completion barrier orders every
// peer's last read before it.
//
// Every buffer is boxed once, when it is made: converting a slice header to
// an interface allocates, so a shelf keeps the interface value and the
// kernels thread it through unchanged, and a flat tuple keeps its first
// block's once First has made it.
//
// A nil *Arena is valid and simply allocates fresh buffers — collectives
// run unchanged (only slower) on communicators that provide no arena.
type Arena struct {
	// last indexes the shelf drawn from most recently, which a loop over a
	// list draws from again.
	shelves []shelf
	last    int
}

// kind is what a shelf holds. It is part of the key: a Vec of 0 words and
// a Tuple of width 0 are both drawn, and only a Tuple is cleared at Reset.
type kind uint8

const (
	vecKind kind = iota
	tupleKind
	flatKind
)

// shelf holds every buffer of one shape the arena made: a Vec of m words,
// a Tuple of width w or a flat tuple of w components of m words. The first
// next of them are drawn since Reset; a cycle that needs more makes more,
// so a shelf keeps the most one cycle drew.
type shelf struct {
	kind kind
	w, m int
	bufs []Value
	next int
}

// Bytes of an interface value, of the slice header a boxed Vec or Tuple
// points to, of a FlatTuple's own fields with room for its first block's
// boxed header, and of a word, on a 64-bit machine.
const valueBytes, headerBytes, flatBytes, wordBytes = 16, 24, 56 + 24, 8

func (s *shelf) bytes() int {
	switch s.kind {
	case vecKind:
		return headerBytes + s.m*wordBytes
	case tupleKind:
		return headerBytes + s.w*valueBytes
	}
	return flatBytes + s.w*s.m*wordBytes
}

// Bytes is the storage a keeps from one Reset to the next.
func (a *Arena) Bytes() int {
	n := 0
	for i := range a.shelves {
		n += len(a.shelves[i].bufs) * a.shelves[i].bytes()
	}
	return n
}

// Reset reclaims every buffer drawn since the last Reset; a tuple header is
// cleared, so a free one pins nothing. Only call at a point where no other
// rank can still hold a reference (the backends reset at run start, after
// the previous run's completion barrier).
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	for i := range a.shelves {
		s := &a.shelves[i]
		if s.kind == tupleKind {
			for _, t := range s.bufs[:s.next] {
				clear(t.(Tuple))
			}
		}
		s.next = 0
	}
}

// draw returns a buffer of the shelf (k, w, m), contents unspecified; a
// nil arena makes one.
func (a *Arena) draw(k kind, w, m int) Value {
	if a == nil {
		return fresh(k, w, m)
	}
	if l := a.last; l >= len(a.shelves) || a.shelves[l].kind != k || a.shelves[l].w != w || a.shelves[l].m != m {
		a.last = len(a.shelves)
		for i := range a.shelves {
			if s := &a.shelves[i]; s.kind == k && s.w == w && s.m == m {
				a.last = i
				break
			}
		}
		if a.last == len(a.shelves) {
			a.shelves = append(a.shelves, shelf{kind: k, w: w, m: m})
		}
	}
	s := &a.shelves[a.last]
	if s.next == len(s.bufs) {
		s.bufs = append(s.bufs, fresh(k, w, m))
	}
	s.next++
	return s.bufs[s.next-1]
}

// fresh is a fresh buffer of the shape (k, w, m).
func fresh(k kind, w, m int) Value {
	switch k {
	case vecKind:
		return make(Vec, m)
	case tupleKind:
		return make(Tuple, w)
	}
	return NewFlatTuple(w, m)
}

// Vec returns a block of m words, pre-boxed as a Value. Contents are
// unspecified — callers overwrite every element.
func (a *Arena) Vec(m int) Value { return a.draw(vecKind, 0, m) }

// Tuple returns a width-w tuple header and the same tuple pre-boxed as a
// Value. Its components are unspecified — callers set every one.
func (a *Arena) Tuple(w int) (Tuple, Value) {
	v := a.draw(tupleKind, w, 0)
	return v.(Tuple), v
}

// Flat returns a flat tuple of w components of m words each. Contents are
// unspecified — callers overwrite every element.
func (a *Arena) Flat(w, m int) *FlatTuple {
	t := a.draw(flatKind, w, m).(*FlatTuple)
	// A buffer moved away last run is reclaimable now — the previous run's
	// completion barrier ordered the receiver's last access before this
	// hand-out — but its move poison must not survive.
	t.MarkOwned()
	return t
}

// GiveBack returns the last k buffers drawn, all from one shelf: the
// temporaries of a kernel call, dead once it returns.
func (a *Arena) GiveBack(k int) {
	if a != nil && k > 0 {
		a.shelves[a.last].next -= k
	}
}
