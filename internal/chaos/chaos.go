// Package chaos is the fault-injection layer of the test stack: a
// rank.Link that wraps a rank's own link, beneath its message discipline
// (rank.Core), and perturbs how packets move under a seeded PRNG — per-link
// delay, bounded reorder, duplicate delivery, one-shot drops repaired by a
// later good copy, and per-rank slowdown.
//
// The sender stamps every packet with a per-link sequence number and draws
// its faults in program order, so a (profile, seed) pair replays the same
// fault schedule whatever the threads do. The receiver discards doomed
// copies and duplicates and returns packets in sequence order: above the
// decorator the link is the FIFO link the backend offers, so rank.Core's
// tag check, counters and self and range checks apply unchanged under
// faults — a receive out of tag order fails here as it does on every bare
// backend. The guarantee this package exists to check: a program's results
// on a chaos-wrapped rank are bitwise identical to its results on the bare
// one, for every profile and seed.
package chaos

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/algebra"
	"repro/internal/rank"
)

// envelope is one packet on the wrapped link.
type envelope struct {
	// seq is the per-link sequence number: the receiver's delivery order
	// and its duplicate filter.
	seq uint64
	// doomed marks a copy the wire "loses": the receiver discards it.
	doomed bool
	// notBefore, when set, is the injected in-flight latency: the receiver
	// holds the packet until this instant.
	notBefore time.Time
	payload   algebra.Value
}

// Words is the payload's: the header travels free, so the virtual machine
// prices a wrapped packet like a bare one.
func (e *envelope) Words() int { return e.payload.Words() }

func (e *envelope) String() string { return fmt.Sprintf("#%d %s", e.seq, e.payload) }

// fault is what the wire does to one packet.
type fault int

const (
	deliver fault = iota
	drop          // a doomed copy, then the good one RetryAfter later
	dup           // two good copies
	hold          // held back for the rank's next link operation to overtake
)

// message is one stamped packet on its way to dst.
type message struct {
	dst, tag int
	env      *envelope
	fault    fault
}

// Link is the fault-injecting link of one rank. Install puts it beneath the
// rank's message discipline; Fence takes it out.
type Link struct {
	under  rank.Link
	prof   Profile
	rng    *rand.Rand
	slowed bool

	seq   []uint64      // next sequence number to send, by destination
	next  []uint64      // next sequence number to deliver, by source
	early []rank.Packet // the packet that overtook the one expected, by source
	held  *message      // at most one packet held back

	restore func()
}

// Install puts a fault-injecting Link beneath c's message discipline and
// returns it. Each rank derives its own PRNG from seed and its rank, so a
// (profile, seed) pair replays the same fault schedule. Every rank of the
// run must be wrapped, and must call Fence before its body returns.
func Install(c *rank.Core, prof Profile, seed int64) *Link {
	p := c.Size()
	l := &Link{
		prof:   prof,
		rng:    rand.New(rand.NewSource(seed*0x9E3779B9 + int64(c.Rank())*0x85EBCA6B + 1)),
		slowed: prof.SlowEvery > 0 && c.Rank()%prof.SlowEvery == 0,
		seq:    make([]uint64, p),
		next:   make([]uint64, p),
		early:  make([]rank.Packet, p),
	}
	l.restore = c.Decorate(func(under rank.Link) rank.Link {
		l.under = under
		return l
	})
	return l
}

// Fence puts a held-back packet on the wire and the rank's own link back.
// Call it after the body's last operation: the backend parks its ranks
// across runs, and a packet held past the body would never arrive.
func (l *Link) Fence() {
	l.release()
	l.restore()
}

// Put ships pkt to dst under the fault regime.
func (l *Link) Put(dst int, pkt rank.Packet) {
	l.slow()
	l.put(dst, pkt)
}

// Take returns the next packet from src in the order src sent it, whatever
// the wire did to it in between.
func (l *Link) Take(src, want int) rank.Packet {
	l.slow()
	return l.take(src, want)
}

// Swap is a Put then a Take, so both directions pass through the faults.
func (l *Link) Swap(peer int, pkt rank.Packet) rank.Packet {
	l.slow()
	l.put(peer, pkt)
	return l.take(peer, pkt.Tag)
}

// put stamps the packet and draws its faults, then ships it — or holds it
// back. A packet held by the previous operation is shipped first, unless
// this one overtakes it: a send to the same destination that is not held
// itself.
func (l *Link) put(dst int, pkt rank.Packet) {
	m := l.stamp(dst, pkt)
	prev := l.held
	l.held = nil
	overtake := prev != nil && prev.dst == dst && m.fault != hold
	if prev != nil && !overtake {
		l.ship(prev)
	}
	if m.fault == hold {
		l.held = m
	} else {
		l.ship(m)
	}
	if overtake {
		l.ship(prev)
	}
}

// stamp numbers the packet on its link and draws its delay and its fault
// from the rank's PRNG.
func (l *Link) stamp(dst int, pkt rank.Packet) *message {
	env := &envelope{seq: l.seq[dst], payload: pkt.Value}
	l.seq[dst]++
	var lag time.Duration
	if l.prof.DelayProb > 0 && l.rng.Float64() < l.prof.DelayProb {
		lag = time.Duration(l.rng.Int63n(int64(l.prof.MaxDelay) + 1))
	}
	m := &message{dst: dst, tag: pkt.Tag, env: env}
	switch r := l.rng.Float64(); {
	case r < l.prof.DropProb:
		m.fault = drop
		lag += l.prof.retryAfter()
	case r < l.prof.DropProb+l.prof.DupProb:
		m.fault = dup
	case r < l.prof.DropProb+l.prof.DupProb+l.prof.ReorderProb:
		m.fault = hold
	}
	if lag > 0 {
		env.notBefore = time.Now().Add(lag)
	}
	return m
}

// ship puts a message's copies on the wrapped link, as borrows: a copy
// may be delivered twice, so the decorator never gives a payload away.
func (l *Link) ship(m *message) {
	switch m.fault {
	case drop:
		doomed := *m.env
		doomed.doomed = true
		l.under.Put(m.dst, rank.Packet{Value: &doomed, Tag: m.tag})
	case dup:
		l.under.Put(m.dst, rank.Packet{Value: m.env, Tag: m.tag})
	}
	l.under.Put(m.dst, rank.Packet{Value: m.env, Tag: m.tag})
}

// release ships the held-back packet, if there is one: a rank never waits
// with a packet of its own held, or its peer might wait for it for ever.
func (l *Link) release() {
	if m := l.held; m != nil {
		l.held = nil
		l.ship(m)
	}
}

// take releases what the rank holds, then reads src's link until the next
// packet in sequence turns up: doomed copies and duplicates are dropped,
// and a packet that overtook the one expected is kept until its turn —
// with at most one packet held back, at most one can be ahead.
func (l *Link) take(src, want int) rank.Packet {
	l.release()
	for {
		var pkt rank.Packet
		if e := l.early[src]; e.Value != nil && e.Value.(*envelope).seq == l.next[src] {
			pkt, l.early[src] = e, rank.Packet{}
		} else {
			pkt = l.under.Take(src, want)
		}
		env := pkt.Value.(*envelope)
		switch {
		case env.doomed || env.seq < l.next[src]:
			continue // lost on the wire, or a copy of one delivered
		case env.seq > l.next[src]:
			l.early[src] = pkt
			continue
		}
		l.next[src]++
		spinFor(time.Until(env.notBefore)) // the zero time is long past
		pkt.Value = env.payload
		return pkt
	}
}

// slow injects the profile's per-rank slowdown into one link operation.
func (l *Link) slow() {
	if l.slowed {
		spinFor(l.prof.SlowBy)
	}
}

// spinFor busy-waits: the injected delays sit below the scheduler's sleep
// granularity, exactly like backend.Machine's startup injection.
func spinFor(d time.Duration) {
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}
