package algebra

// Arena is a per-rank region of scratch buffers for the collective hot
// path. Vec and Flat hand out buffers from size-keyed free lists (or the
// allocator when a list is empty); Reset returns every handed-out buffer
// to its free list in one step. The collectives draw each combining
// round's destination from the arena, so in steady state — after the
// first run has populated the free lists — the log-p rounds of a
// reduction or scan allocate nothing.
//
// Ownership discipline (see docs/PERF.md): a buffer obtained from the
// arena is private to the rank until it is passed to Send or Exchange,
// at which point it is frozen for the rest of the run — the receiver may
// still be reading it. Reset must therefore only run at a point where no
// peer can hold a reference, which the backends guarantee by resetting at
// the start of a run: the previous run's completion barrier orders every
// peer's last read before it.
//
// Vec buffers and Tuple headers are pooled as pre-boxed Values: converting
// a slice header to an interface allocates, so the pool stores the
// interface value and the kernels thread it through unchanged.
//
// A nil *Arena is valid and simply allocates fresh buffers — collectives
// run unchanged (only slower) on communicators that provide no arena.
type Arena struct {
	freeVecs   map[int][]Value
	freeFlats  map[flatKey][]*FlatTuple
	freeTuples map[int][]Value
	usedVecs   []Value
	usedFlats  []*FlatTuple
	usedTuples []Value
}

type flatKey struct{ w, words int }

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{
		freeVecs:   map[int][]Value{},
		freeFlats:  map[flatKey][]*FlatTuple{},
		freeTuples: map[int][]Value{},
	}
}

// Vec returns a length-n scratch vector, pre-boxed as a Value. Contents
// are unspecified — callers overwrite every element.
func (a *Arena) Vec(n int) Value {
	if a == nil {
		return make(Vec, n)
	}
	if free := a.freeVecs[n]; len(free) > 0 {
		v := free[len(free)-1]
		a.freeVecs[n] = free[:len(free)-1]
		a.usedVecs = append(a.usedVecs, v)
		return v
	}
	v := Value(make(Vec, n))
	a.usedVecs = append(a.usedVecs, v)
	return v
}

// Tuple returns a width-w tuple header and the same tuple pre-boxed as a
// Value. Its components are unspecified — callers set every one.
func (a *Arena) Tuple(w int) (Tuple, Value) {
	if a == nil {
		t := make(Tuple, w)
		return t, t
	}
	var v Value
	if free := a.freeTuples[w]; len(free) > 0 {
		v = free[len(free)-1]
		a.freeTuples[w] = free[:len(free)-1]
	} else {
		v = make(Tuple, w)
	}
	a.usedTuples = append(a.usedTuples, v)
	return v.(Tuple), v
}

// Flat returns a scratch flat tuple of w components of m words each.
// Contents are unspecified — callers overwrite every element.
func (a *Arena) Flat(w, m int) *FlatTuple {
	if a == nil {
		return NewFlatTuple(w, m)
	}
	k := flatKey{w: w, words: w * m}
	if free := a.freeFlats[k]; len(free) > 0 {
		t := free[len(free)-1]
		a.freeFlats[k] = free[:len(free)-1]
		a.usedFlats = append(a.usedFlats, t)
		// A buffer moved away last run is reclaimable now — the previous
		// run's completion barrier ordered the receiver's last access
		// before this hand-out — but its move poison must not survive.
		t.MarkOwned()
		return t
	}
	t := NewFlatTuple(w, m)
	a.usedFlats = append(a.usedFlats, t)
	return t
}

// Reset reclaims every buffer handed out since the last Reset. Only call
// at a point where no other rank can still hold a reference (the backends
// reset at run start, after the previous run's completion barrier).
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	for i, v := range a.usedVecs {
		n := len(v.(Vec))
		a.freeVecs[n] = append(a.freeVecs[n], v)
		a.usedVecs[i] = nil
	}
	a.usedVecs = a.usedVecs[:0]
	for i, t := range a.usedFlats {
		k := flatKey{w: t.W, words: len(t.Data)}
		a.freeFlats[k] = append(a.freeFlats[k], t)
		a.usedFlats[i] = nil
	}
	a.usedFlats = a.usedFlats[:0]
	for i, v := range a.usedTuples {
		t := v.(Tuple)
		clear(t) // a free header pins nothing
		a.freeTuples[len(t)] = append(a.freeTuples[len(t)], v)
		a.usedTuples[i] = nil
	}
	a.usedTuples = a.usedTuples[:0]
}
