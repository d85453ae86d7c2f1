package algebra

import (
	"fmt"
	"testing"
)

// TestArenaKeepsEachKindApart holds the arena to its contract over every
// kind of buffer, the empty ones included (a rank draws Vec(0) for an empty
// segment): drawn interleaved, reset and drawn again in another order, each
// shape hands back only its own buffers; Reset clears tuple headers and
// nothing else; a flat tuple moved away comes back owned; GiveBack(k)
// rewinds exactly k draws; Bytes counts every buffer kept; and a warm cycle
// allocates nothing. A shelf keyed by (w, m) alone, with the kind inferred
// from a zero, would hand a Vec(0) out as a Tuple(0) and clear it at Reset.
func TestArenaKeepsEachKindApart(t *testing.T) {
	const w, m = 3, 5
	shapes := []struct {
		name  string
		draw  func(a *Arena) Value
		shape string // what shapeOf names a buffer of this shape
		bytes int    // as Bytes counts one buffer on a 64-bit machine
	}{
		{"Vec(0)", func(a *Arena) Value { return a.Vec(0) }, "Vec(0)", 24},
		{"Tuple(0)", func(a *Arena) Value { _, v := a.Tuple(0); return v }, "Tuple(0)", 24},
		{"Vec(w)", func(a *Arena) Value { return a.Vec(w) }, "Vec(3)", 24 + 8*w},
		{"Tuple(w)", func(a *Arena) Value { _, v := a.Tuple(w); return v }, "Tuple(3)", 24 + 16*w},
		{"Flat(w, m)", func(a *Arena) Value { return a.Flat(w, m) }, "Flat(3, 5)", 40 + 8*w*m},
		{"Flat(m, w)", func(a *Arena) Value { return a.Flat(m, w) }, "Flat(5, 3)", 40 + 8*w*m},
	}
	// shapeOf names the shape v has, and id is its storage: nil for the
	// empty Vec and Tuple, which have none to tell them apart.
	shapeOf := func(v Value) (string, any) {
		switch x := v.(type) {
		case Vec:
			if len(x) == 0 {
				return "Vec(0)", nil
			}
			return fmt.Sprintf("Vec(%d)", len(x)), &x[0]
		case Tuple:
			if len(x) == 0 {
				return "Tuple(0)", nil
			}
			return fmt.Sprintf("Tuple(%d)", len(x)), &x[0]
		case *FlatTuple:
			return fmt.Sprintf("Flat(%d, %d)", x.W, x.M()), x
		}
		return fmt.Sprintf("%T", v), nil
	}

	a := new(Arena)
	if a.Bytes() != 0 {
		t.Fatalf("a new arena keeps %d bytes", a.Bytes())
	}
	// Two of every shape, interleaved, each written all over.
	first := map[string][]Value{}
	for round := 0; round < 2; round++ {
		for _, s := range shapes {
			v := s.draw(a)
			if got, _ := shapeOf(v); got != s.shape {
				t.Fatalf("first cycle: %s drew a %s", s.name, got)
			}
			switch x := v.(type) {
			case Vec:
				for i := range x {
					x[i] = 7
				}
			case Tuple:
				for i := range x {
					x[i] = Scalar(1)
				}
			case *FlatTuple:
				for i := range x.Data {
					x.Data[i] = 9
				}
				x.MarkMoved()
			}
			first[s.name] = append(first[s.name], v)
		}
	}
	wantBytes := 0
	for _, s := range shapes {
		wantBytes += 2 * s.bytes
	}
	if a.Bytes() != wantBytes {
		t.Errorf("after two of each shape the arena keeps %d bytes, want %d", a.Bytes(), wantBytes)
	}

	a.Reset()
	for name, vs := range first {
		for _, v := range vs {
			switch x := v.(type) {
			case Vec:
				for _, e := range x {
					if e != 7 {
						t.Errorf("Reset wrote into a %s: %v", name, x)
						break
					}
				}
			case Tuple:
				for _, c := range x {
					if c != nil {
						t.Errorf("Reset left a %s header pinning %v", name, c)
						break
					}
				}
			case *FlatTuple:
				for _, e := range x.Data {
					if e != 9 {
						t.Errorf("Reset wrote into a %s: %v", name, x.Data)
						break
					}
				}
			}
		}
	}

	// The same draws in reverse order: every one is one of the first
	// cycle's buffers of its own shape, none twice, and none grows the
	// arena.
	second := map[string]map[any]bool{}
	for round := 0; round < 2; round++ {
		for i := len(shapes) - 1; i >= 0; i-- {
			s := shapes[i]
			v := s.draw(a)
			got, id := shapeOf(v)
			if got != s.shape {
				t.Fatalf("after Reset: %s drew a %s", s.name, got)
			}
			if f, ok := v.(*FlatTuple); ok && f.IsMoved() {
				t.Errorf("after Reset: %s came back moved", s.name)
			}
			if id == nil {
				continue
			}
			if second[s.name] == nil {
				second[s.name] = map[any]bool{}
			}
			if second[s.name][id] {
				t.Errorf("after Reset: %s handed out one buffer twice", s.name)
			}
			second[s.name][id] = true
			mine := false
			for _, u := range first[s.name] {
				_, uid := shapeOf(u)
				mine = mine || uid == id
			}
			if !mine {
				t.Errorf("after Reset: %s drew a buffer it did not make in the first cycle", s.name)
			}
		}
	}
	if a.Bytes() != wantBytes {
		t.Errorf("drawing the same shapes again grew the arena from %d to %d bytes", wantBytes, a.Bytes())
	}

	// GiveBack(k) rewinds the last k draws of one shelf: the next draws
	// are those buffers again, in order, and the one after is fresh.
	a.Reset()
	drawn := []*FlatTuple{a.Flat(w, m), a.Flat(w, m), a.Flat(w, m)}
	a.GiveBack(0)
	a.GiveBack(2)
	for i, f := range []*FlatTuple{a.Flat(w, m), a.Flat(w, m)} {
		if f != drawn[i+1] {
			t.Errorf("GiveBack(2): draw %d after it is not draw %d before it", i+1, i+2)
		}
	}
	if f := a.Flat(w, m); f == drawn[0] || f == drawn[1] || f == drawn[2] {
		t.Error("GiveBack(2) rewound more than two draws")
	}
	wantBytes += 2 * shapes[4].bytes // the third and the fresh fourth
	if a.Bytes() != wantBytes {
		t.Errorf("four Flat(w, m) kept the arena at %d bytes, want %d", a.Bytes(), wantBytes)
	}

	if raceEnabled {
		return
	}
	cycle := func() {
		for _, s := range shapes {
			s.draw(a)
			s.draw(a)
		}
		a.Reset()
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Errorf("a warm cycle allocates %v times, want 0", n)
	}
}
