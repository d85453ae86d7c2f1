package coll

import (
	"math/rand"
	"testing"

	"repro/internal/algebra"
	"repro/internal/machine"
)

// TestStressRandomCollectiveSequences runs randomized sequences of
// collectives — over the world and over a random even/odd split — and
// checks every result against a sequential model. It targets the tag
// machinery and the SPMD synchronization of the communicator layer: any
// mismatch in collective order between group members would deadlock or
// trip the tag assertion.
func TestStressRandomCollectiveSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(555))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(11)
		steps := 1 + rng.Intn(6)
		kinds := make([]int, steps)
		for i := range kinds {
			kinds[i] = rng.Intn(4)
		}
		start := make([]float64, n)
		for i := range start {
			start[i] = float64(rng.Intn(9) - 4)
		}

		// Sequential model of the same sequence.
		model := append([]float64(nil), start...)
		apply := func(vals []float64, kind int) {
			switch kind {
			case 0: // allreduce(+)
				sum := 0.0
				for _, v := range vals {
					sum += v
				}
				for i := range vals {
					vals[i] = sum
				}
			case 1: // scan(+)
				for i := 1; i < len(vals); i++ {
					vals[i] += vals[i-1]
				}
			case 2: // bcast
				for i := range vals {
					vals[i] = vals[0]
				}
			case 3: // allreduce(max)
				best := vals[0]
				for _, v := range vals {
					if v > best {
						best = v
					}
				}
				for i := range vals {
					vals[i] = best
				}
			}
		}
		// The parallel run splits even/odd every other step.
		useSplit := make([]bool, steps)
		for i := range useSplit {
			useSplit[i] = rng.Intn(2) == 0 && n >= 4
		}
		for s, kind := range kinds {
			if useSplit[s] {
				var even, odd []float64
				var evenIdx, oddIdx []int
				for i, v := range model {
					if i%2 == 0 {
						even = append(even, v)
						evenIdx = append(evenIdx, i)
					} else {
						odd = append(odd, v)
						oddIdx = append(oddIdx, i)
					}
				}
				apply(even, kind)
				apply(odd, kind)
				for j, i := range evenIdx {
					model[i] = even[j]
				}
				for j, i := range oddIdx {
					model[i] = odd[j]
				}
			} else {
				apply(model, kind)
			}
		}

		// Parallel execution.
		m := machine.New(n, machine.Params{Ts: 3, Tw: 1})
		got := make([]float64, n)
		m.Run(func(proc *machine.Proc) {
			w := Comm(proc)
			v := Value(algebra.Scalar(start[proc.Rank()]))
			for s, kind := range kinds {
				c := w
				if useSplit[s] {
					c = Split(w, proc.Rank()%2, proc.Rank())
				}
				switch kind {
				case 0:
					v = AllReduce(c, algebra.Add, v)
				case 1:
					v = Scan(c, algebra.Add, v)
				case 2:
					v = Bcast(c, 0, v)
				case 3:
					v = AllReduce(c, algebra.Max, v)
				}
			}
			got[proc.Rank()] = float64(v.(algebra.Scalar))
		})
		for i := range got {
			if got[i] != model[i] {
				t.Fatalf("trial %d (n=%d, kinds=%v, split=%v): proc %d = %g, model %g\n got %v\n model %v",
					trial, n, kinds, useSplit, i, got[i], model[i], got, model)
			}
		}
	}
}
