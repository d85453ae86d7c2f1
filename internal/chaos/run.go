package chaos

import (
	"time"

	"repro/internal/backend"
	"repro/internal/coll"
	"repro/internal/machine"
)

// mailbox is the per-link buffer depth for chaos runs. A message can take
// two slots (a duplicate, or a doomed copy and its retransmission), and the
// duplicate of a body's last message sits undrained until the run ends, so
// the chaos runners want more headroom than the collectives' default of 4.
const mailbox = 64

// OnNative runs an SPMD body on the native backend with every rank's link
// wrapped — the oracle's chaos leg, and the runner of tests that drive
// subgroups or collectives directly rather than stage programs. The machine is tuned for chaos
// traffic: deep mailboxes, a generous receive timeout, and the deadlock
// watchdog armed so a wedged run yields a per-rank diagnosis instead of a
// hang. The body gets the backend's own rank; Fence runs after it returns.
func OnNative(p int, prof Profile, seed int64, body func(c coll.Comm)) {
	m := backend.New(p)
	m.MailboxCap, m.Timeout, m.Watchdog = mailbox, 30*time.Second, 5*time.Second
	m.Run(func(pr *backend.Proc) {
		l := Install(&pr.Core, prof, seed)
		body(pr)
		l.Fence()
	})
}

// OnVirtual is OnNative on the virtual-time machine, deep mailboxes too.
func OnVirtual(p int, prof Profile, seed int64, body func(c coll.Comm)) {
	m := machine.New(p, machine.Params{Ts: 100, Tw: 1})
	m.MailboxCap = mailbox
	m.Run(func(pr *machine.Proc) {
		l := Install(&pr.Core, prof, seed)
		body(pr)
		l.Fence()
	})
}
