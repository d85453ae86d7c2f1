package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/lang"
	"repro/internal/rules"
	"repro/internal/term"
)

func parseProg(t *testing.T, src string) term.Seq {
	t.Helper()
	syms := lang.NewSymbols()
	syms.DefineFn(rules.IncFn)
	parsed, err := lang.Parse(src, syms)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return term.Compose(parsed)
}

func TestFusible(t *testing.T) {
	cases := []struct {
		src  string
		want bool
	}{
		{"scan(+)", true},
		{"allreduce(max)", true},
		{"bcast ; scan(+) ; reduce(+)", true},
		{"map inc ; scan(+)", false},   // local stage reshapes nothing but is conservatively excluded
		{"gather ; scatter", false},    // reshapes values across ranks
		{"map pair ; map pi_1", false}, // tuple construction
	}
	for _, c := range cases {
		if got := Fusible(parseProg(t, c.src)); got != c.want {
			t.Errorf("Fusible(%q) = %v, want %v", c.src, got, c.want)
		}
	}
	if Fusible(nil) {
		t.Error("empty program must not be fusible")
	}
}

// submitN pushes n compatible requests into the fuser concurrently and
// returns each member's plan + info in submission-goroutine order.
func submitN(t *testing.T, f *Fuser, src string, mach core.Machine, ms []int) ([]Plan, []FusionInfo) {
	t.Helper()
	prog := parseProg(t, src)
	canon := rules.Canonical(prog)
	plans := make([]Plan, len(ms))
	infos := make([]FusionInfo, len(ms))
	var wg sync.WaitGroup
	for i, m := range ms {
		wg.Add(1)
		go func(i, m int) {
			defer wg.Done()
			mm := mach
			mm.M = m
			plan, _, info, err := f.Submit(prog, canon, mm, StrategyGreedy, false)
			if err != nil {
				t.Errorf("Submit[%d]: %v", i, err)
				return
			}
			plans[i] = plan
			infos[i] = info
		}(i, m)
	}
	wg.Wait()
	return plans, infos
}

// TestFusionBatchByCount: MaxCount compatible requests flush as one
// batch — one plan, one engine run, contiguous offsets.
func TestFusionBatchByCount(t *testing.T) {
	pl := NewPlanner(64, 4)
	f := NewFuser(pl, time.Hour, 4, 1<<30) // only the count threshold can flush
	mach := core.Machine{Ts: 1000, Tw: 1, P: 8}
	ms := []int{2, 3, 1, 4}
	plans, infos := submitN(t, f, "scan(+) ; reduce(+)", mach, ms)

	total := 2 + 3 + 1 + 4
	seen := make(map[int]bool)
	for i, info := range infos {
		if info.Batch != 4 {
			t.Errorf("member %d: batch = %d, want 4", i, info.Batch)
		}
		if info.FusedM != total {
			t.Errorf("member %d: fused m = %d, want %d", i, info.FusedM, total)
		}
		if seen[info.OffsetWords] {
			t.Errorf("duplicate offset %d", info.OffsetWords)
		}
		seen[info.OffsetWords] = true
		if plans[i].Optimized != plans[0].Optimized {
			t.Errorf("member %d got a different plan", i)
		}
	}
	if runs := pl.EngineRuns(); runs != 1 {
		t.Errorf("fused batch cost %d engine runs, want 1", runs)
	}
	st := f.Stats()
	if st.Batches != 1 || st.FusedRequests != 4 || st.MaxBatch != 4 || st.Dist[4] != 1 {
		t.Errorf("stats = %+v, want one batch of 4", st)
	}
}

// TestFusionBatchByBytes: the bytes threshold flushes before the count
// threshold is reached.
func TestFusionBatchByBytes(t *testing.T) {
	pl := NewPlanner(64, 4)
	// 3 words * 8 bytes = 24 >= 20 flushes on the second member.
	f := NewFuser(pl, time.Hour, 100, 20)
	mach := core.Machine{Ts: 1000, Tw: 1, P: 8}
	_, infos := submitN(t, f, "allreduce(+)", mach, []int{2, 2, 2, 2})
	st := f.Stats()
	if st.Batches < 2 {
		t.Errorf("bytes threshold never flushed: stats %+v", st)
	}
	for i, info := range infos {
		if info.Batch > 2 {
			t.Errorf("member %d: batch %d exceeds the bytes bound", i, info.Batch)
		}
	}
}

// TestFusionCycleExpiry: a lone request is flushed by the cycle timer,
// as a batch of one.
func TestFusionCycleExpiry(t *testing.T) {
	pl := NewPlanner(64, 4)
	f := NewFuser(pl, 5*time.Millisecond, 100, 1<<30)
	mach := core.Machine{Ts: 1000, Tw: 1, P: 8, M: 4}
	prog := parseProg(t, "scan(+)")
	start := time.Now()
	_, _, info, err := f.Submit(prog, rules.Canonical(prog), mach, StrategyGreedy, false)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if info.Batch != 1 || info.FusedM != 4 || info.OffsetWords != 0 {
		t.Errorf("info = %+v, want lone batch", info)
	}
	if waited := time.Since(start); waited < 4*time.Millisecond {
		t.Errorf("flushed after %v, before the cycle expired", waited)
	}
}

// TestFusionDrain: Drain flushes open windows immediately so shutdown
// never waits on a cycle timer.
func TestFusionDrain(t *testing.T) {
	pl := NewPlanner(64, 4)
	f := NewFuser(pl, time.Hour, 100, 1<<30)
	mach := core.Machine{Ts: 1000, Tw: 1, P: 8, M: 2}
	prog := parseProg(t, "reduce(max)")
	done := make(chan FusionInfo, 1)
	go func() {
		_, _, info, err := f.Submit(prog, rules.Canonical(prog), mach, StrategyGreedy, false)
		if err != nil {
			t.Errorf("Submit: %v", err)
		}
		done <- info
	}()
	// Wait until the request is enrolled, then drain.
	for i := 0; i < 1000; i++ {
		if f.Stats().Pending > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	f.Drain()
	select {
	case info := <-done:
		if info.Batch != 1 {
			t.Errorf("drained batch = %+v", info)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain left the request waiting")
	}
}

// intBlocks builds one m-word small-integer block per rank (exact under
// every operator chain, so bitwise comparisons are meaningful even
// across reassociating rewrites).
func intBlocks(p, m, salt int) []algebra.Value {
	out := make([]algebra.Value, p)
	for r := range out {
		b := make(algebra.Vec, m)
		for j := range b {
			b[j] = float64((r*5+j*3+salt)%7 + 1)
		}
		out[r] = b
	}
	return out
}

// TestFusedPlanExecutesBitwiseEqual is the end-to-end fusion soundness
// check: a fused batch's plan, executed once on the native backend over
// the concatenated blocks, must de-batch into results bitwise equal to
// executing the same plan per request — and equal (exactly, on integer
// inputs) to the per-request run of the *original* unoptimized program.
// The plan itself must pass rules.VerifyEquivalence against the original.
func TestFusedPlanExecutesBitwiseEqual(t *testing.T) {
	for _, p := range []int{4, 6, 8} {
		for _, src := range []string{"scan(+) ; reduce(+)", "bcast ; scan(+)", "allreduce(max) ; reduce(+)"} {
			t.Run(fmt.Sprintf("p%d/%s", p, src), func(t *testing.T) {
				pl := NewPlanner(64, 4)
				f := NewFuser(pl, time.Hour, 3, 1<<30)
				// Small blocks and a start-up-dominated machine, so the
				// fused plan actually rewrites.
				mach := core.Machine{Ts: 5000, Tw: 1, P: p}
				ms := []int{2, 3, 1}
				plans, infos := submitN(t, f, src, mach, ms)
				plan := plans[0]
				orig := parseProg(t, src)

				// The fused plan is semantically equivalent to the
				// original program.
				if err := rules.VerifyEquivalence(orig, plan.Term, rules.VerifyConfig{Seed: 9, BlockWords: 3}); err != nil {
					t.Fatalf("fused plan fails VerifyEquivalence: %v", err)
				}
				if !plan.Verified {
					t.Fatal("plan not marked verified")
				}

				// One fused native execution over the concatenated
				// blocks, each member's words at its reported offset
				// (offsets follow enrollment order, which under
				// concurrent submission need not be index order).
				blocks := make([][]algebra.Value, len(ms))
				for i, m := range ms {
					blocks[i] = intBlocks(p, m, i)
				}
				fusedIn := make([]algebra.Value, p)
				for r := 0; r < p; r++ {
					v := make(algebra.Vec, infos[0].FusedM)
					for i := range ms {
						copy(v[infos[i].OffsetWords:infos[i].OffsetWords+ms[i]], blocks[i][r].(algebra.Vec))
					}
					fusedIn[r] = v
				}
				fusedOut, _ := core.FromTerm(plan.Term).RunNative(p, fusedIn)

				for i := range ms {
					// De-batch member i's slice via its offset.
					info := infos[i]
					member := make([]algebra.Value, p)
					for r := 0; r < p; r++ {
						vec := fusedOut[r].(algebra.Vec)
						slice := make(algebra.Vec, ms[i])
						copy(slice, vec[info.OffsetWords:info.OffsetWords+ms[i]])
						member[r] = slice
					}
					// Bitwise equal to the unfused run of the same plan...
					unfused, _ := core.FromTerm(plan.Term).RunNative(p, blocks[i])
					for r := 0; r < p; r++ {
						if !algebra.Equal(member[r], unfused[r]) {
							t.Fatalf("member %d rank %d: fused %v, unfused %v", i, r, member[r], unfused[r])
						}
					}
					// ...and in agreement with the original program's
					// functional semantics modulo undetermined positions
					// (the rules only promise the determined parts — a
					// rewrite may leave non-root ranks with different
					// scratch values).
					sem := term.Eval(orig, blocks[i])
					planSem := term.Eval(plan.Term, blocks[i])
					for r := 0; r < p; r++ {
						if !algebra.EqualModuloUndef(planSem[r], member[r]) {
							t.Fatalf("member %d rank %d: fused %v disagrees with plan semantics %v", i, r, member[r], planSem[r])
						}
						if !algebra.EqualModuloUndef(sem[r], planSem[r]) {
							t.Fatalf("rank %d: plan semantics %v disagree with original semantics %v", r, planSem[r], sem[r])
						}
					}
				}
			})
		}
	}
}

// TestConcatSplitRoundTrip: SplitBlocks undoes ConcatBlocks and copies
// (no aliasing into the fused buffer).
func TestConcatSplitRoundTrip(t *testing.T) {
	blocks := [][]algebra.Value{intBlocks(4, 2, 0), intBlocks(4, 3, 1)}
	fused := ConcatBlocks(blocks)
	back := SplitBlocks(fused, []int{2, 3})
	for i := range blocks {
		for r := range blocks[i] {
			if !algebra.Equal(blocks[i][r], back[i][r]) {
				t.Fatalf("member %d rank %d: %v != %v", i, r, back[i][r], blocks[i][r])
			}
		}
	}
	// Mutating the split output must not touch the fused buffer.
	back[0][0].(algebra.Vec)[0] = -99
	if fused[0].(algebra.Vec)[0] == -99 {
		t.Fatal("SplitBlocks aliased the fused buffer")
	}
}
