// Package chaos is the fault-injection layer of the test stack: a
// decorator around any coll.Comm that perturbs point-to-point traffic
// under a seeded PRNG — per-link delay, bounded reorder, duplicate
// delivery, one-shot drops repaired by an ack-tagged retry protocol, and
// per-rank slowdown — while preserving the semantics the collectives
// above it rely on.
//
// The decorator multiplexes its own wire protocol over the raw link layer
// (rank.Caps.Raw) of any backend: every application message travels
// as an envelope carrying the application tag plus two sequence numbers,
// one per link (the deduplication and acknowledgement key) and one per
// (link, tag) stream (the delivery-order key). Receivers deduplicate,
// acknowledge, and deliver each (source, tag) stream in send order, so
// the paper's tag discipline — collective n's messages never satisfy
// collective n+1's receives — survives arbitrary wire-level reorder. The
// guarantee this package exists to check: a program's results on a
// chaos-wrapped communicator are bitwise identical to its results on the
// bare one, for every profile and seed.
package chaos

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/algebra"
	"repro/internal/coll"
	"repro/internal/rank"
)

// wireTag is the single underlying-layer tag all chaos packets travel
// under; the application tags live inside the envelopes. It is far above
// the subgroup tag offset (1<<20), so undecorated traffic can never be
// mistaken for chaos traffic or vice versa.
const wireTag = 1<<30 + 7

// DefaultTimeout bounds how long a chaos operation may wait before
// panicking with a protocol-level diagnosis (distinct from the backend's
// own receive timeout, which guards the raw link).
const DefaultTimeout = 10 * time.Second

const (
	kindData = byte(iota)
	kindAck
)

// envelope is one chaos wire packet.
type envelope struct {
	kind byte
	// seq is the per-link sequence number: the deduplication and
	// acknowledgement key.
	seq uint64
	// tagseq orders the messages of one (link, application tag) stream;
	// the receiver delivers each stream strictly in tagseq order.
	tagseq uint64
	// tag is the application tag (data packets).
	tag int
	// doomed marks a copy that the wire "loses": the receiver discards
	// it without acknowledgement, forcing the sender's retry path.
	doomed bool
	// notBefore, when set, is the injected in-flight latency: the
	// receiver holds the packet until this instant.
	notBefore time.Time
	payload   algebra.Value
}

// Words prices the envelope for the virtual machine's cost accounting: an
// ack is one word, a data packet its payload plus a two-word header.
func (e *envelope) Words() int {
	if e.kind == kindAck {
		return 1
	}
	return e.payload.Words() + 2
}

func (e *envelope) String() string {
	if e.kind == kindAck {
		return fmt.Sprintf("ack#%d", e.seq)
	}
	return fmt.Sprintf("env#%d(tag %d, %s)", e.seq, e.tag, e.payload)
}

// outEntry tracks one sent message until it is acknowledged, given up on,
// or (for held-back messages) put on the wire.
type outEntry struct {
	env *envelope
	dst int
	// held marks a message not yet on the wire (bounded reorder).
	held bool
	// attempts counts wire transmissions; good counts the non-doomed
	// ones. An entry may only be discarded once good > 0 or acked.
	attempts, good int
	acked          bool
	// due is the next action time: release for held entries, retransmit
	// otherwise.
	due time.Time
}

// pendingAck is one acknowledgement owed to a sender, queued so that ack
// transmission never recurses through a full mailbox.
type pendingAck struct {
	dst int
	seq uint64
}

// Stats counts the injected faults and protocol traffic of one wrapped
// rank.
type Stats struct {
	// Sent and Delivered count application messages through the
	// decorator (Delivered excludes duplicates and doomed copies).
	Sent, Delivered int
	// Delayed, Reordered, Duplicated and Dropped count messages given
	// each fault.
	Delayed, Reordered, Duplicated, Dropped int
	// Retransmits counts retry transmissions; Acks counts
	// acknowledgements received.
	Retransmits, Acks int
}

// Comm is the fault-injecting communicator. Wrap one around each rank's
// backend communicator inside the SPMD body; all collectives of package
// coll run on it unmodified. Call Fence before the body returns so that
// every in-flight retry obligation is discharged.
type Comm struct {
	// Timeout bounds every chaos-level wait; zero means DefaultTimeout.
	Timeout time.Duration

	under coll.Comm
	raw   *rank.Core
	prof  Profile
	rng   *rand.Rand

	seq     []uint64         // next per-link sequence number, by dst
	sendTS  []map[int]uint64 // next per-(dst, tag) stream number
	recvTS  []map[int]uint64 // next expected per-(src, tag) stream number
	seen    []map[uint64]bool
	pending [][]*envelope
	out     []*outEntry
	ackq    []pendingAck
	stats   Stats
}

// Wrap decorates a backend communicator with fault injection. Each rank
// derives its own PRNG from seed and its rank, so a (profile, seed)
// pair replays the same fault schedule. The communicator must expose its
// raw link (Caps().Raw); every backend's rank does, a subgroup or another
// decorator does not.
func Wrap(under coll.Comm, prof Profile, seed int64) *Comm {
	raw := under.Caps().Raw
	if raw == nil {
		panic(fmt.Sprintf("chaos: %T exposes no raw link; wrap the backend's rank, not a subgroup", under))
	}
	p := under.Size()
	c := &Comm{
		under:   under,
		raw:     raw,
		prof:    prof,
		rng:     rand.New(rand.NewSource(seed*0x9E3779B9 + int64(under.Rank())*0x85EBCA6B + 1)),
		seq:     make([]uint64, p),
		sendTS:  make([]map[int]uint64, p),
		recvTS:  make([]map[int]uint64, p),
		seen:    make([]map[uint64]bool, p),
		pending: make([][]*envelope, p),
	}
	for r := 0; r < p; r++ {
		c.sendTS[r] = make(map[int]uint64)
		c.recvTS[r] = make(map[int]uint64)
		c.seen[r] = make(map[uint64]bool)
	}
	return c
}

// Stats returns the rank's fault and traffic counters.
func (c *Comm) Stats() Stats { return c.stats }

// Rank is the caller's rank in the wrapped group.
func (c *Comm) Rank() int { return c.under.Rank() }

// Size is the wrapped group size.
func (c *Comm) Size() int { return c.under.Size() }

// NextTag forwards to the wrapped communicator, keeping the tag sequence
// identical to an undecorated run.
func (c *Comm) NextTag() int { return c.under.NextTag() }

// Compute charges local computation on the wrapped communicator, with the
// profile's per-rank slowdown injected first.
func (c *Comm) Compute(n float64) {
	c.slow()
	c.under.Compute(n)
}

// Caps shares the wrapped rank's arena and mark hook, so the collectives'
// zero-allocation hot path runs under fault injection too; the raw link is
// taken by the chaos protocol.
func (c *Comm) Caps() rank.Caps { return c.under.Caps().Shared() }

func (c *Comm) timeout() time.Duration {
	if c.Timeout > 0 {
		return c.Timeout
	}
	return DefaultTimeout
}

// slow injects the profile's per-rank slowdown.
func (c *Comm) slow() {
	if c.prof.SlowEvery > 0 && c.prof.SlowBy > 0 && c.Rank()%c.prof.SlowEvery == 0 {
		spinFor(c.prof.SlowBy)
	}
}

// Send ships v to dst under the fault regime: the message is wrapped in
// an envelope, possibly delayed, held back behind its successor,
// duplicated, or doomed to a first-transmission loss that the retry
// protocol repairs.
func (c *Comm) Send(dst int, v coll.Value, tag int) {
	c.slow()
	c.stats.Sent++
	env := &envelope{kind: kindData, tag: tag, payload: v}
	env.seq = c.seq[dst]
	c.seq[dst]++
	env.tagseq = c.sendTS[dst][tag]
	c.sendTS[dst][tag]++
	if c.prof.DelayProb > 0 && c.rng.Float64() < c.prof.DelayProb {
		env.notBefore = time.Now().Add(time.Duration(c.rng.Int63n(int64(c.prof.MaxDelay) + 1)))
		c.stats.Delayed++
	}
	now := time.Now()
	r := c.rng.Float64()
	switch {
	case r < c.prof.DropProb:
		// One-shot drop: the wire copy is doomed (the receiver discards
		// it without acking) and the retry path must deliver a fresh
		// copy after the backoff.
		doomed := *env
		doomed.doomed = true
		c.wireSend(dst, &doomed)
		c.stats.Dropped++
		c.out = append(c.out, &outEntry{env: env, dst: dst, attempts: 1, due: now.Add(c.prof.retryAfter())})
	case r < c.prof.DropProb+c.prof.DupProb:
		c.wireSend(dst, env)
		c.wireSend(dst, env)
		c.stats.Duplicated++
		c.out = append(c.out, &outEntry{env: env, dst: dst, attempts: 2, good: 2, due: now.Add(c.prof.retryAfter())})
	case r < c.prof.DropProb+c.prof.DupProb+c.prof.ReorderProb:
		// Hold this message back; the next send on the link overtakes it.
		c.stats.Reordered++
		c.out = append(c.out, &outEntry{env: env, dst: dst, held: true, due: now.Add(c.prof.holdFor())})
		c.service()
		return
	default:
		c.wireSend(dst, env)
		c.out = append(c.out, &outEntry{env: env, dst: dst, attempts: 1, good: 1, due: now.Add(c.prof.retryAfter())})
	}
	c.releaseHeld(dst)
	c.service()
}

// Recv returns the next message of the (src, tag) stream, in the order it
// was sent, whatever the wire did to it in between.
func (c *Comm) Recv(src, tag int) coll.Value {
	c.slow()
	deadline := time.Now().Add(c.timeout())
	for {
		if env, ok := c.takeDeliverable(src, tag); ok {
			c.stats.Delivered++
			return env.payload
		}
		if v, wtag, ok := c.raw.TryRecvAny(src); ok {
			c.admit(src, v, wtag)
			continue
		}
		c.service()
		if c.quiet() {
			// No retry obligations of our own: hand the wait to the raw
			// link, where the backend's timeout and deadlock watchdog
			// can see a genuinely blocked rank.
			v, wtag := c.raw.RecvAny(src)
			c.admit(src, v, wtag)
			continue
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("chaos: rank %d timed out after %v waiting for tag %d from rank %d (%d pending, %d unacked, %d held)",
				c.Rank(), c.timeout(), tag, src, len(c.pending[src]), c.unacked(), c.heldCount()))
		}
		runtime.Gosched()
	}
}

// SendMove is Send and RecvOwned a borrowing Recv: an envelope may be
// retransmitted or duplicated, so the decorator cannot give a payload away.
func (c *Comm) SendMove(dst int, v coll.Value, tag int) { c.Send(dst, v, tag) }

func (c *Comm) RecvOwned(src, tag int) (coll.Value, bool) { return c.Recv(src, tag), false }

// Exchange is the bidirectional swap, realized as an independent send and
// receive so both directions pass through the fault machinery.
func (c *Comm) Exchange(partner int, v coll.Value, tag int) coll.Value {
	c.Send(partner, v, tag)
	return c.Recv(partner, tag)
}

// Fence discharges the rank's remaining wire obligations: held-back
// messages are released, messages whose only transmission was doomed are
// resent, and owed acknowledgements are flushed. Call it after the last
// collective of the SPMD body; without it, a drop on the body's final
// message would strand the receiver until the watchdog fires.
func (c *Comm) Fence() {
	deadline := time.Now().Add(c.timeout())
	for {
		// Force every entry that still owes the wire a good copy.
		for _, e := range c.out {
			if e.held {
				e.held = false
				c.wireSend(e.dst, e.env)
				e.attempts++
				e.good++
			} else if e.good == 0 {
				c.wireSend(e.dst, e.env)
				c.stats.Retransmits++
				e.attempts++
				e.good++
			}
		}
		c.out = c.out[:0]
		c.flushAcks()
		if len(c.ackq) == 0 {
			return
		}
		if time.Now().After(deadline) {
			panic(fmt.Sprintf("chaos: rank %d fence stuck for %v (%d acks unsent)", c.Rank(), c.timeout(), len(c.ackq)))
		}
		runtime.Gosched()
	}
}

// takeDeliverable pops the next in-order envelope of the (src, tag)
// stream from the pending set, honoring its injected latency.
func (c *Comm) takeDeliverable(src, tag int) (*envelope, bool) {
	want := c.recvTS[src][tag]
	for i, env := range c.pending[src] {
		if env.tag != tag || env.tagseq != want {
			continue
		}
		waitUntil(env.notBefore)
		c.pending[src] = append(c.pending[src][:i], c.pending[src][i+1:]...)
		c.recvTS[src][tag] = want + 1
		return env, true
	}
	return nil, false
}

// admit processes one raw-link arrival: acknowledgements cancel retries,
// doomed copies vanish, duplicates are acked but dropped, and fresh data
// joins the pending set.
func (c *Comm) admit(src int, v algebra.Value, wtag int) {
	if wtag != wireTag {
		panic(fmt.Sprintf("chaos: rank %d got undecorated traffic from rank %d (tag %d) on a chaos link", c.Rank(), src, wtag))
	}
	env, ok := v.(*envelope)
	if !ok {
		panic(fmt.Sprintf("chaos: rank %d got a bare %T from rank %d on a chaos link", c.Rank(), v, src))
	}
	if env.kind == kindAck {
		c.stats.Acks++
		for _, e := range c.out {
			if e.dst == src && e.env.seq == env.seq {
				e.acked = true
			}
		}
		return
	}
	if env.doomed {
		// Simulated loss: the copy never "arrived", so no ack — the
		// sender's retry path owns recovery.
		return
	}
	c.ackq = append(c.ackq, pendingAck{dst: src, seq: env.seq})
	c.flushAcks()
	if c.seen[src][env.seq] {
		return // duplicate (or retransmission of an already-delivered copy)
	}
	c.seen[src][env.seq] = true
	c.pending[src] = append(c.pending[src], env)
}

// service advances the protocol clockwork: owed acks are flushed, due
// held-back messages are released, and unacknowledged messages are
// retransmitted on their backoff schedule until MaxAttempts.
func (c *Comm) service() {
	c.flushAcks()
	now := time.Now()
	keep := c.out[:0]
	for _, e := range c.out {
		switch {
		case e.acked && !e.held:
		case !now.After(e.due):
			keep = append(keep, e)
		case e.held:
			// Held past its deadline with no overtaker: release.
			e.held = false
			c.wireSend(e.dst, e.env)
			e.attempts++
			e.good++
			e.due = now.Add(c.prof.retryAfter())
			keep = append(keep, e)
		case e.attempts >= c.prof.maxAttempts() && e.good > 0:
			// Give up retrying: at least one good copy is on the
			// reliable wire, so the receiver will get it.
		default:
			c.wireSend(e.dst, e.env)
			c.stats.Retransmits++
			e.attempts++
			e.good++
			e.due = now.Add(c.prof.retryAfter() << e.attempts)
			keep = append(keep, e)
		}
	}
	c.out = keep
}

// releaseHeld puts every held-back message for dst on the wire — called
// after a newer message to dst has been sent, completing the overtake.
func (c *Comm) releaseHeld(dst int) {
	for _, e := range c.out {
		if e.held && e.dst == dst {
			e.held = false
			c.wireSend(e.dst, e.env)
			e.attempts++
			e.good++
			e.due = time.Now().Add(c.prof.retryAfter())
		}
	}
}

// wireSend puts one envelope on the raw link, draining incoming traffic
// to make room when the mailbox is full.
func (c *Comm) wireSend(dst int, env *envelope) {
	if c.raw.TrySend(dst, env, wireTag) {
		return
	}
	t0 := time.Now()
	for {
		c.pollLinks()
		if c.raw.TrySend(dst, env, wireTag) {
			return
		}
		if time.Since(t0) > c.timeout() {
			panic(fmt.Sprintf("chaos: rank %d: mailbox to rank %d full for %v (%s)", c.Rank(), dst, c.timeout(), env))
		}
		runtime.Gosched()
	}
}

// flushAcks sends as many owed acknowledgements as the links will take.
func (c *Comm) flushAcks() {
	rest := c.ackq[:0]
	for _, a := range c.ackq {
		if !c.raw.TrySend(a.dst, &envelope{kind: kindAck, seq: a.seq}, wireTag) {
			rest = append(rest, a)
		}
	}
	c.ackq = rest
}

// pollLinks drains whatever has arrived on the links we owe or await
// something on, without blocking.
func (c *Comm) pollLinks() {
	for _, e := range c.out {
		if v, wtag, ok := c.raw.TryRecvAny(e.dst); ok {
			c.admit(e.dst, v, wtag)
		}
	}
}

// quiet reports whether the rank has no wire obligations left: nothing
// held back, nothing whose only copy was doomed, no acks owed. A quiet
// rank may block indefinitely on the raw link.
func (c *Comm) quiet() bool {
	if len(c.ackq) > 0 {
		return false
	}
	for _, e := range c.out {
		if e.held || e.good == 0 {
			return false
		}
	}
	return true
}

func (c *Comm) unacked() int {
	n := 0
	for _, e := range c.out {
		if !e.acked {
			n++
		}
	}
	return n
}

func (c *Comm) heldCount() int {
	n := 0
	for _, e := range c.out {
		if e.held {
			n++
		}
	}
	return n
}

func (p Profile) holdFor() time.Duration {
	if p.HoldFor <= 0 {
		return 100 * time.Microsecond
	}
	return p.HoldFor
}

// spinFor busy-waits: the injected delays sit below the scheduler's sleep
// granularity, exactly like backend.Machine's startup injection.
func spinFor(d time.Duration) {
	t0 := time.Now()
	for time.Since(t0) < d {
	}
}

// waitUntil busy-waits until the instant t (no-op for the zero time).
func waitUntil(t time.Time) {
	if t.IsZero() {
		return
	}
	for time.Now().Before(t) {
	}
}
