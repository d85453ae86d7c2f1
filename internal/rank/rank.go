// Package rank is the one rank every backend runs: the message discipline
// of the §4.1 machine — tag check, rank-range and self-send checks, the
// SPMD tag sequence, the message/word/op counters and the move/borrow
// ownership protocol — written once, over a Link. A Link is the only thing
// a backend writes: how a packet moves, with that backend's own clock and
// failure policy (machine: the model's ts + m·tw; backend: goroutine
// mailboxes; mpbackend: socket frames between OS processes). All three
// embed a Core, so a program sees the same checks, tags and counts wherever
// it runs; a decorator that perturbs how packets move (package chaos) goes
// beneath the Core too (Decorate), so it does not change them either. The
// package imports only algebra, so every backend and package coll can sit
// above it.
package rank

import (
	"fmt"

	"repro/internal/algebra"
)

// Packet is one in-flight message.
type Packet struct {
	Value algebra.Value
	Tag   int
	// Owned marks an ownership-transferring message (SendMove); a borrowing
	// send leaves it false — the value is a shared, frozen reference.
	Owned bool
}

// Link moves packets between this rank and its peers. Peers are already
// range- and self-checked, the traffic already counted and the tag checked
// on return: a link only moves the packet, advances its backend's clock and
// applies its backend's failure policy (timeout, cancellation, dead peer) —
// by panicking, like every failure inside an SPMD body. Backends implement
// it on a defined type over their rank (type link Proc), which keeps these
// methods off the rank's own method set.
type Link interface {
	// Put ships pkt to dst, blocking while the link is full. A link that
	// transfers ownership calls pkt.Relinquish once it no longer reads the
	// sender's storage and before the receiver can see the packet; a link
	// that cannot clears Owned and delivers a borrow.
	Put(dst int, pkt Packet)
	// Take blocks for the next packet from src, in the order src put them.
	// want is the tag the caller waits for and only feeds diagnostics.
	Take(src, want int) Packet
	// Swap is Put then Take with one peer — the simultaneous bidirectional
	// exchange of §4.1, which a model clock prices as one overlapped
	// transfer.
	Swap(peer int, pkt Packet) Packet
}

// Relinquish is the sender's half of an ownership transfer: an Owned
// packet's *FlatTuple is poisoned, so any later access by the old owner
// panics until its arena reclaims the buffer. Only links call it (see
// Link.Put).
func (p Packet) Relinquish() {
	if ft, ok := p.Value.(*algebra.FlatTuple); ok && p.Owned {
		ft.MarkMoved()
	}
}

// Caps is what a communicator offers beyond messages.
type Caps struct {
	// Arena is the rank's scratch arena; nil means collectives allocate —
	// representation decisions never depend on it, so results are bitwise
	// equal either way. The backend owns its Reset: only where no peer can
	// still read the buffers (after the previous run's completion barrier).
	Arena *algebra.Arena
	// Mark records a stage-boundary annotation at the current time; nil
	// when nobody records them, so callers skip rendering the label.
	Mark func(label string)
}

// Counters are a rank's traffic and work since its last Reset, comparable
// across backends.
type Counters struct {
	// Sent and Received count messages, Words the volume sent.
	Sent, Received, Words int
	// Ops is the computation charged via Compute.
	Ops float64
}

// Core is one rank of an SPMD program: it implements every method of
// coll.Comm over its backend's Link. Backends embed it; its
// methods must only be called from the goroutine running the rank's body.
type Core struct {
	rank, size int
	link       Link
	caps       Caps
	tagseq     int
	n          Counters
}

// Init makes c rank r of size ranks over link. arena and mark may be nil
// (see Caps).
func (c *Core) Init(r, size int, link Link, arena *algebra.Arena, mark func(label string)) {
	*c = Core{rank: r, size: size, link: link, caps: Caps{Arena: arena, Mark: mark}}
}

// Reset restarts the tag sequence and the counters for a new run.
func (c *Core) Reset() { c.tagseq, c.n = 0, Counters{} }

// Decorate puts wrap(link) in place of the rank's link — beneath the checks,
// the tag check and the counters, which stay the rank's own — and returns
// the function that puts the backend's link back. A backend parks its ranks
// across runs, so whoever decorates restores before the body returns.
func (c *Core) Decorate(wrap func(Link) Link) (restore func()) {
	under := c.link
	c.link = wrap(under)
	return func() { c.link = under }
}

// Rank is this rank's index, 0 ≤ Rank < Size.
func (c *Core) Rank() int { return c.rank }

// Size is the number of ranks.
func (c *Core) Size() int { return c.size }

// Caps returns the rank's capability record.
func (c *Core) Caps() Caps { return c.caps }

// ScratchArena is Caps().Arena.
func (c *Core) ScratchArena() *algebra.Arena { return c.caps.Arena }

// Counters returns the rank's traffic and work counters.
func (c *Core) Counters() Counters { return c.n }

// Uncounted runs f — control traffic of the backend itself, such as a
// barrier — and leaves the counters as they were.
func (c *Core) Uncounted(f func()) {
	saved := c.n
	f()
	c.n = saved
}

// NextTag returns a fresh message tag. The ranks run the same SPMD program,
// so every collective gets a distinct tag without coordination.
func (c *Core) NextTag() int {
	c.tagseq++
	return c.tagseq
}

// Compute charges n units of local computation (one per elementary
// operation, §4.1).
func (c *Core) Compute(n float64) {
	if n < 0 {
		panic(fmt.Sprintf("rank %d: negative computation charge", c.rank))
	}
	c.n.Ops += n
}

// Mark records a stage-boundary annotation, if the backend keeps them.
func (c *Core) Mark(label string) {
	if c.caps.Mark != nil {
		c.caps.Mark(label)
	}
}

// Send ships v to rank dst, as a borrow.
func (c *Core) Send(dst int, v algebra.Value, tag int) { c.put(dst, Packet{Value: v, Tag: tag}) }

// SendMove ships v to rank dst giving it away; on a link that cannot
// transfer ownership it is exactly Send. coll.Comm states the protocol.
func (c *Core) SendMove(dst int, v algebra.Value, tag int) {
	c.put(dst, Packet{Value: v, Tag: tag, Owned: true})
}

func (c *Core) put(dst int, pkt Packet) {
	c.checkPeer(dst, "sending to")
	c.n.Sent++
	c.n.Words += pkt.Value.Words()
	c.link.Put(dst, pkt)
}

// Recv receives the next message from rank src, blocking until it arrives;
// its tag must be tag.
func (c *Core) Recv(src, tag int) algebra.Value {
	c.checkRank(src)
	return c.accept(c.link.Take(src, tag), src, tag).Value
}

// RecvOwned receives like Recv and reports whether the message transferred
// ownership; if so a *FlatTuple's move poison is cleared — the adoption
// point of the protocol.
func (c *Core) RecvOwned(src, tag int) (algebra.Value, bool) {
	c.checkRank(src)
	pkt := c.accept(c.link.Take(src, tag), src, tag)
	if ft, ok := pkt.Value.(*algebra.FlatTuple); ok && pkt.Owned {
		ft.MarkOwned()
	}
	return pkt.Value, pkt.Owned
}

// Exchange performs the simultaneous bidirectional swap with partner.
func (c *Core) Exchange(partner int, v algebra.Value, tag int) algebra.Value {
	c.checkPeer(partner, "exchanging with")
	c.n.Sent++
	c.n.Words += v.Words()
	return c.accept(c.link.Swap(partner, Packet{Value: v, Tag: tag}), partner, tag).Value
}

// accept is the tag discipline: collective n's messages never satisfy
// collective n+1's receives.
func (c *Core) accept(pkt Packet, src, tag int) Packet {
	if pkt.Tag != tag {
		panic(fmt.Sprintf("rank %d expected tag %d from rank %d, got %d", c.rank, tag, src, pkt.Tag))
	}
	c.n.Received++
	return pkt
}

func (c *Core) checkRank(r int) {
	if r < 0 || r >= c.size {
		panic(fmt.Sprintf("rank %d: peer %d out of range [0,%d)", c.rank, r, c.size))
	}
}

func (c *Core) checkPeer(r int, doing string) {
	if r == c.rank {
		panic(fmt.Sprintf("rank %d %s itself", c.rank, doing))
	}
	c.checkRank(r)
}
