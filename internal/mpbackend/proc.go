package mpbackend

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"time"

	"repro/internal/algebra"
	"repro/internal/rank"
)

// mailboxCap is the decoded-message queue depth per inbound link. It is
// deeper than the native backend's default because the socket reader
// drains ahead of the body: protocol bursts (barriers, unfold sends)
// should never stall the peer's writer.
const mailboxCap = 64

// Proc is one multi-process rank: a separate OS process connected to
// every peer by a Unix domain socket. It is the shared rank core — so a
// coll.Comm, and every collective of package coll runs on it unmodified —
// over the socket link below. Every message is serialized at the send site,
// so no peer ever holds a reference into this rank's arena: the body may
// Reset it at any quiescent point (the measurement bodies do so between
// repetitions).
type Proc struct {
	rank.Core
	// socks[r] is the duplex connection to rank r (nil at rank itself).
	// Only the rank's body goroutine writes a connection, one whole frame
	// per Write; only the connection's reader goroutine reads it.
	socks []net.Conn
	// mail[src] queues decoded packets from src, filled by that
	// connection's reader goroutine.
	mail []chan rank.Packet
	// dead is triggered by the first connection that fails.
	dead    *rank.Abort
	ctrlseq int
	// encBuf is the reusable frame-encoding buffer; it grows to the
	// largest message and is not reallocated per send.
	encBuf []byte
}

func newProc(r, p int) *Proc {
	pr := &Proc{
		socks: make([]net.Conn, p),
		mail:  make([]chan rank.Packet, p),
		dead:  rank.NewAbort(),
	}
	pr.Init(r, p, (*link)(pr), algebra.NewArena(), nil)
	for src := range pr.mail {
		if src != r {
			pr.mail[src] = make(chan rank.Packet, mailboxCap)
		}
	}
	return pr
}

// sockPath is rank r's listening socket inside the job directory.
func sockPath(dir string, r int) string {
	return filepath.Join(dir, fmt.Sprintf("rank.%d.sock", r))
}

// connect builds the full mesh for one rank: listen on the rank's own
// socket, dial every lower rank (retrying until its listener exists),
// then accept one connection from every higher rank. Dialers identify
// themselves with a 4-byte hello. The linear setup is acceptable because
// a process group is spawned once per job, not per measurement.
func connect(dir string, rank, p int, deadline time.Time) (*Proc, error) {
	pr := newProc(rank, p)
	if p == 1 {
		return pr, nil
	}
	ln, err := net.Listen("unix", sockPath(dir, rank))
	if err != nil {
		return nil, fmt.Errorf("rank %d listen: %w", rank, err)
	}
	defer ln.Close()
	for r := 0; r < rank; r++ {
		conn, err := dialRetry(sockPath(dir, r), deadline)
		if err != nil {
			return nil, fmt.Errorf("rank %d dialing rank %d: %w", rank, r, err)
		}
		var hello [4]byte
		binary.LittleEndian.PutUint32(hello[:], uint32(rank))
		if _, err := conn.Write(hello[:]); err != nil {
			return nil, fmt.Errorf("rank %d hello to rank %d: %w", rank, r, err)
		}
		pr.socks[r] = conn
	}
	for n := rank + 1; n < p; n++ {
		if d, ok := ln.(interface{ SetDeadline(time.Time) error }); ok {
			d.SetDeadline(deadline)
		}
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("rank %d accepting peer: %w", rank, err)
		}
		var hello [4]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			return nil, fmt.Errorf("rank %d reading hello: %w", rank, err)
		}
		src := int(binary.LittleEndian.Uint32(hello[:]))
		if src <= rank || src >= p || pr.socks[src] != nil {
			return nil, fmt.Errorf("rank %d got hello from unexpected rank %d", rank, src)
		}
		pr.socks[src] = conn
	}
	for r, conn := range pr.socks {
		if conn != nil {
			go pr.read(r, conn)
		}
	}
	return pr, nil
}

// dialRetry dials a peer socket, retrying while the peer's listener may
// not exist yet.
func dialRetry(path string, deadline time.Time) (net.Conn, error) {
	for {
		conn, err := net.Dial("unix", path)
		if err == nil {
			return conn, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// read is the per-connection reader goroutine: it decodes frames from src
// into the mailbox until the connection closes. The first failure poisons
// the rank, so blocked receives surface it instead of hanging.
func (p *Proc) read(src int, conn net.Conn) {
	frames := newFrameReader(conn)
	for {
		tag, owned, v, err := frames.next()
		if err != nil {
			p.dead.Fail(fmt.Sprintf("link from rank %d: %v", src, err))
			return
		}
		p.mail[src] <- rank.Packet{Value: v, Tag: tag, Owned: owned}
	}
}

// close shuts down every connection; blocked peers observe EOF.
func (p *Proc) close() {
	for _, conn := range p.socks {
		if conn != nil {
			conn.Close()
		}
	}
}

// link is how a packet moves between processes: a real serialization — the
// value is encoded at the send site, shipped through the kernel and decoded
// into fresh storage by the peer's reader goroutine, which is exactly the
// per-word cost the §4.1 model calls tw and the in-process links calibrate
// to ~0. Time is wall-clock; the failure policy is the dead link: a peer
// that exits mid-protocol poisons the rank (the job's own timeout bounds
// everything else).
type link Proc

// linkDown is the panic value of a rank that fails only because a peer's
// link died — the peer failed first, so Run reports the peer's own failure
// in preference.
type linkDown string

// down is the rank failing on its first dead link.
func (l *link) down() linkDown {
	return linkDown(fmt.Sprintf("mpbackend: rank %d: %s", l.Rank(), l.dead.Reason()))
}

// Put encodes and ships one frame to dst. The value is fully serialized
// before Put returns, so the receiver always gets private storage and a
// move costs the same as a borrow; an owned value is relinquished all the
// same, so the ownership discipline is checked identically on every link.
func (l *link) Put(dst int, pkt rank.Packet) {
	l.encBuf = appendFrame(l.encBuf[:0], pkt.Tag, pkt.Owned, pkt.Value)
	if _, err := l.socks[dst].Write(l.encBuf); err != nil {
		l.dead.Fail(fmt.Sprintf("link to rank %d: %v", dst, err))
		panic(l.down())
	}
	pkt.Relinquish()
}

// TryPut never refuses: socket writes are buffered by the kernel and the
// peer's reader goroutine always drains.
func (l *link) TryPut(dst int, pkt rank.Packet) bool {
	l.Put(dst, pkt)
	return true
}

// Take dequeues the next packet from src, surfacing a dead link as a panic
// instead of a hang. Delivered messages win over a concurrent link failure:
// the mailbox is drained before the poison is surfaced, so a peer closing
// right after its last send never loses that send.
func (l *link) Take(src, want int) rank.Packet {
	select {
	case pkt := <-l.mail[src]:
		return pkt
	case <-l.dead.Done():
		if pkt, ok := l.TryTake(src); ok {
			return pkt
		}
		panic(l.down())
	}
}

// TryTake dequeues an already-arrived packet from src, if any.
func (l *link) TryTake(src int) (rank.Packet, bool) {
	select {
	case pkt := <-l.mail[src]:
		return pkt, true
	default:
		return rank.Packet{}, false
	}
}

// Swap writes, then reads: kernel socket buffers and the always-draining
// reader goroutines keep both sides writing first deadlock-free.
func (l *link) Swap(peer int, pkt rank.Packet) rank.Packet {
	l.Put(peer, pkt)
	return l.Take(peer, pkt.Tag)
}

// ctrlBase offsets the barrier's control tags far below every application
// tag (NextTag counts up from 1, subgroup tags are offset positive), so a
// control message can never satisfy a collective's receive.
const ctrlBase = -(1 << 40)

// Barrier blocks until every rank of the group has entered it: non-zero
// ranks report to rank 0 and wait for its release. The measurement bodies
// use it to give every repetition a synchronized start, mirroring the
// barrier-released runs of the in-process backends. Control traffic does
// not count toward the message/word counters.
func (p *Proc) Barrier() {
	if p.Size() == 1 {
		return
	}
	p.ctrlseq++
	tag := ctrlBase - p.ctrlseq
	p.Uncounted(func() {
		if p.Rank() != 0 {
			p.Send(0, algebra.Scalar(0), tag)
			p.Recv(0, tag)
			return
		}
		for r := 1; r < p.Size(); r++ {
			p.Recv(r, tag)
		}
		for r := 1; r < p.Size(); r++ {
			p.Send(r, algebra.Scalar(0), tag)
		}
	})
}
