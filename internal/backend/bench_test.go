package backend_test

import (
	"testing"
	"time"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
)

// BenchmarkPingPong measures the per-message cost of the native backend's
// receive path: two ranks bounce a scalar back and forth, so every Recv
// blocks and the numbers are Send/Recv plus the goroutine hand-off. A
// receive does the same work with and without a Timeout — the machine's
// monitor, not the receive, keeps the time — so the two sub-benchmarks
// differ by what one pending runtime timer costs the scheduler, which
// reads the clock on every goroutine switch while any timer is armed.
func BenchmarkPingPong(b *testing.B) {
	const msgs = 1024
	run := func(b *testing.B, m *backend.Machine) {
		b.ReportAllocs()
		v := algebra.Value(algebra.Scalar(1))
		for i := 0; i < b.N; i++ {
			m.Run(func(p *backend.Proc) {
				for k := 0; k < msgs; k++ {
					if p.Rank() == 0 {
						p.Send(1, v, k)
						p.Recv(1, k)
					} else {
						p.Recv(0, k)
						p.Send(0, v, k)
					}
				}
			})
		}
	}
	b.Run("timeout", func(b *testing.B) {
		m := backend.New(2) // DefaultTimeout: the monitor's timer is pending throughout
		run(b, m)
	})
	b.Run("no-timeout", func(b *testing.B) {
		m := backend.New(2)
		m.Timeout = 0 // no timer in the process: the floor
		run(b, m)
	})
}

// BenchmarkNativeAllReduce exercises a full collective on the cached
// machine: after the first run warms the mailboxes and arenas, the
// combining rounds of the butterfly draw all scratch from the per-rank
// arenas.
func BenchmarkNativeAllReduce(b *testing.B) {
	const p, m = 8, 1024
	mach := backend.New(p)
	mach.Timeout = 10 * time.Second
	in := make([]algebra.Value, p)
	for r := 0; r < p; r++ {
		vec := make(algebra.Vec, m)
		for i := range vec {
			vec[i] = float64(r + i)
		}
		in[r] = vec
	}
	op := algebra.Add
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mach.Run(func(pr *backend.Proc) {
			coll.AllReduce(pr, op, in[pr.Rank()])
		})
	}
}
