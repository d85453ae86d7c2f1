package chaos

import (
	"time"

	"repro/internal/algebra"
	"repro/internal/backend"
	"repro/internal/coll"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/term"
)

// Runners: execute a stage program under a fault profile on either
// backend, every rank's link wrapped. These are what the conformance
// harness and the collchaos command drive.

// mailbox is the per-link buffer depth for chaos runs. A message can take
// two slots (a duplicate, or a doomed copy and its retransmission), and the
// duplicate of a body's last message sits undrained until the run ends, so
// the chaos runners want more headroom than the collectives' default of 4.
const mailbox = 64

// NativeMachine returns a native backend machine tuned for chaos traffic:
// deep mailboxes, a generous receive timeout, and the deadlock watchdog
// armed so a wedged run yields a per-rank diagnosis instead of a hang.
func NativeMachine(p int) *backend.Machine {
	m := backend.New(p)
	m.MailboxCap = mailbox
	m.Timeout = 30 * time.Second
	m.Watchdog = 5 * time.Second
	return m
}

// VirtualMachine returns a virtual-time machine tuned the same way.
func VirtualMachine(p int) *machine.Machine {
	m := machine.New(p, machine.Params{Ts: 100, Tw: 1})
	m.MailboxCap = mailbox
	return m
}

// RunNative executes the stage program on the chaos-wrapped native
// backend: p goroutine ranks, each link wrapped and seeded from (seed,
// rank), and returns the per-rank outputs. The promise under test: the
// result equals a fault-free run bit for bit.
func RunNative(t term.Term, p int, prof Profile, seed int64, in []algebra.Value) []algebra.Value {
	out := make([]algebra.Value, p)
	OnNative(p, prof, seed, func(c coll.Comm) { out[c.Rank()] = core.RunStages(c, t, in[c.Rank()]) })
	return out
}

// RunVirtual is RunNative on the virtual-time machine — same decorator,
// same fault schedule, cost-model clocks underneath.
func RunVirtual(t term.Term, p int, prof Profile, seed int64, in []algebra.Value) []algebra.Value {
	out := make([]algebra.Value, p)
	OnVirtual(p, prof, seed, func(c coll.Comm) { out[c.Rank()] = core.RunStages(c, t, in[c.Rank()]) })
	return out
}

// OnNative runs an arbitrary SPMD body on the native backend with every
// rank's link wrapped — for tests that drive subgroups or collectives
// directly rather than stage programs. The body gets the backend's own
// rank; Fence runs after it returns.
func OnNative(p int, prof Profile, seed int64, body func(c coll.Comm)) {
	NativeMachine(p).Run(func(pr *backend.Proc) {
		l := Install(&pr.Core, prof, seed)
		body(pr)
		l.Fence()
	})
}

// OnVirtual is OnNative on the virtual-time machine.
func OnVirtual(p int, prof Profile, seed int64, body func(c coll.Comm)) {
	VirtualMachine(p).Run(func(pr *machine.Proc) {
		l := Install(&pr.Core, prof, seed)
		body(pr)
		l.Fence()
	})
}
