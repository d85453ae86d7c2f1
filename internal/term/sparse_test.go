package term

import (
	"testing"

	"repro/internal/algebra"
)

func TestHoodSourcesWrap(t *testing.T) {
	h := &Hood{Offsets: []int{-1, 1, 0, 5, -7}}
	got := h.Sources(0, 4)
	want := []int{3, 1, 0, 1, 1} // -1→3, 1→1, 0→0, 5≡1, -7≡1 (mod 4)
	if !equalInts(got, want) {
		t.Fatalf("Sources(0,4) = %v, want %v", got, want)
	}
	if h.Degree(0) != 5 {
		t.Fatalf("Degree = %d, want 5", h.Degree(0))
	}
}

// TestHoodWidth: a halo's fan-in is its offset count, or its longest
// neighbour list, whatever rank that list is.
func TestHoodWidth(t *testing.T) {
	for _, c := range []struct {
		h    *Hood
		want int
	}{
		{&Hood{Offsets: []int{-1, 1, 0, 5, -7}}, 5},
		{&Hood{Offsets: []int{}}, 0},
		{&Hood{Lists: [][]int{{1}, {0, 2, 3}, {}}}, 3},
		{&Hood{Lists: [][]int{{}, {}}}, 0},
	} {
		if got := c.h.Width(); got != c.want {
			t.Errorf("%v: Width = %d, want %d", c.h, got, c.want)
		}
	}
}

func TestHoodListsPinMachineSize(t *testing.T) {
	h := &Hood{Lists: [][]int{{1}, {0}}}
	if h.Isomorphic() {
		t.Fatal("Lists form reported isomorphic")
	}
	if got := h.Sources(1, 2); !equalInts(got, []int{0}) {
		t.Fatalf("Sources(1,2) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Lists hood evaluated at the wrong p did not panic")
		}
	}()
	h.Sources(0, 3)
}

func TestEvalHaloNeighborOrder(t *testing.T) {
	xs := []algebra.Value{algebra.Scalar(10), algebra.Scalar(20), algebra.Scalar(30)}
	out := Eval(Halo{H: &Hood{Offsets: []int{1, -1}}}, xs)
	want := algebra.Tuple{algebra.Scalar(20), algebra.Scalar(30)} // rank 0: +1 first, then -1
	if !algebra.Equal(out[0], want) {
		t.Fatalf("halo out[0] = %v, want %v", out[0], want)
	}
}

func TestEvalAllGatherVSharesFlatResult(t *testing.T) {
	counts := []int{2, 0, 1}
	xs := []algebra.Value{algebra.Vec{1, 2}, algebra.Vec{}, algebra.Vec{3}}
	out := Eval(AllGatherV{Counts: counts}, xs)
	want := algebra.Vec{1, 2, 3}
	for i := range out {
		if !algebra.Equal(out[i], want) {
			t.Fatalf("allgatherv out[%d] = %v, want %v", i, out[i], want)
		}
	}
}

func TestEvalAllGatherVStrictShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("allgatherv with a wrong-size block did not panic")
		}
	}()
	Eval(AllGatherV{Counts: []int{1, 1}}, []algebra.Value{algebra.Vec{1, 2}, algebra.Vec{3}})
}

func TestEvalReduceScatterVSegments(t *testing.T) {
	counts := []int{1, 0, 2}
	xs := []algebra.Value{
		algebra.Vec{1, 2, 3},
		algebra.Vec{10, 20, 30},
		algebra.Vec{100, 200, 300},
	}
	out := Eval(ReduceScatterV{Op: algebra.Add, Counts: counts}, xs)
	if !algebra.Equal(out[0], algebra.Vec{111}) {
		t.Fatalf("rsv out[0] = %v", out[0])
	}
	if !algebra.Equal(out[1], algebra.Vec{}) {
		t.Fatalf("rsv out[1] = %v", out[1])
	}
	if !algebra.Equal(out[2], algebra.Vec{222, 333}) {
		t.Fatalf("rsv out[2] = %v", out[2])
	}
}

func TestEvalReduceScatterVNonVecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("reduce_scatterv over scalars did not panic")
		}
	}()
	Eval(ReduceScatterV{Op: algebra.Add, Counts: []int{1, 1}},
		[]algebra.Value{algebra.Scalar(1), algebra.Scalar(2)})
}

func TestCountsStageAndDispls(t *testing.T) {
	if c, ok := CountsStage(AllGatherV{Counts: []int{1, 2}}); !ok || !equalInts(c, []int{1, 2}) {
		t.Fatalf("CountsStage(allgatherv) = %v, %v", c, ok)
	}
	if c, ok := CountsStage(ReduceScatterV{Op: algebra.Add, Counts: []int{3}}); !ok || !equalInts(c, []int{3}) {
		t.Fatalf("CountsStage(rsv) = %v, %v", c, ok)
	}
	if _, ok := CountsStage(Bcast{}); ok {
		t.Fatal("CountsStage(bcast) reported counts")
	}
	if d := Displs([]int{2, 0, 3}); !equalInts(d, []int{0, 2, 2}) {
		t.Fatalf("Displs = %v", d)
	}
	if SumCounts([]int{2, 0, 3}) != 5 {
		t.Fatal("SumCounts wrong")
	}
}

func TestSparseStageEquality(t *testing.T) {
	a := Halo{H: &Hood{Offsets: []int{-1, 1}}}
	b := Halo{H: &Hood{Offsets: []int{-1, 1}}}
	c := Halo{H: &Hood{Offsets: []int{1, -1}}}
	if !EqualTerms(Seq{a}, Seq{b}) || EqualTerms(Seq{a}, Seq{c}) {
		t.Fatal("halo equality wrong")
	}
	g1 := AllGatherV{Counts: []int{1, 2}}
	g2 := AllGatherV{Counts: []int{1, 2}}
	g3 := AllGatherV{Counts: []int{2, 1}}
	if !EqualTerms(Seq{g1}, Seq{g2}) || EqualTerms(Seq{g1}, Seq{g3}) {
		t.Fatal("allgatherv equality wrong")
	}
	r1 := ReduceScatterV{Op: algebra.Add, Counts: []int{1, 2}}
	r2 := ReduceScatterV{Op: algebra.Mul, Counts: []int{1, 2}}
	if EqualTerms(Seq{r1}, Seq{r2}) {
		t.Fatal("reduce_scatterv op equality wrong")
	}
}
