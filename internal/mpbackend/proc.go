package mpbackend

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/algebra"
	"repro/internal/rank"
)

// Proc is one multi-process rank: a separate OS process connected to
// every peer by a Unix domain socket. It is the shared rank core — so a
// coll.Comm, and every collective of package coll runs on it unmodified —
// over the socket link below. Every message is serialized at the send site,
// so no peer ever holds a reference into this rank's arena: the body may
// Reset it at any quiescent point (the measurement bodies do so between
// repetitions). A received Vec or FlatTuple block is decoded into that
// arena when the body receives it, so it lives until the body's next
// ScratchArena().Reset(), like every other scratch buffer.
//
// The body's goroutine — the only one rank.Core lets call it — moves the
// bytes itself: the sockets are plain blocking descriptors the runtime's
// poller never sees, and nothing reads or writes them behind its back.
type Proc struct {
	rank.Core
	// in[r] is the receiving end of the link to rank r, socket included
	// (fd −1 at the rank itself).
	in      []inbox
	ctrlseq int
	// encBuf is the reusable frame-encoding buffer; it grows to the
	// largest message and is not reallocated per send.
	encBuf []byte
}

func newProc(r, p int) *Proc {
	pr := &Proc{in: make([]inbox, p)}
	for i := range pr.in {
		pr.in[i].fd = -1
	}
	pr.Init(r, p, (*link)(pr), new(algebra.Arena), nil)
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
	ln, err := net.ListenUnix("unix", &net.UnixAddr{Name: sockPath(dir, rank), Net: "unix"})
	if err != nil {
		return nil, fmt.Errorf("rank %d listen: %w", rank, err)
	}
	defer ln.Close()
	ln.SetDeadline(deadline)
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
		if pr.in[r].fd, err = adopt(conn); err != nil {
			return nil, fmt.Errorf("rank %d adopting its link to rank %d: %w", rank, r, err)
		}
	}
	for n := rank + 1; n < p; n++ {
		conn, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("rank %d accepting peer: %w", rank, err)
		}
		var hello [4]byte
		if _, err := io.ReadFull(conn, hello[:]); err != nil {
			return nil, fmt.Errorf("rank %d reading hello: %w", rank, err)
		}
		src := int(binary.LittleEndian.Uint32(hello[:]))
		if src <= rank || src >= p || pr.in[src].fd >= 0 {
			return nil, fmt.Errorf("rank %d got hello from unexpected rank %d", rank, src)
		}
		if pr.in[src].fd, err = adopt(conn); err != nil {
			return nil, fmt.Errorf("rank %d adopting its link to rank %d: %w", rank, src, err)
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

// adopt takes conn's socket out of the runtime's hands: a duplicate
// descriptor, blocking, that the poller never registered; conn is closed.
func adopt(conn net.Conn) (fd int, err error) {
	defer conn.Close()
	raw, err := conn.(syscall.Conn).SyscallConn()
	if err != nil {
		return -1, err
	}
	if cerr := raw.Control(func(s uintptr) { fd, err = syscall.Dup(int(s)) }); cerr != nil {
		return -1, cerr
	}
	if err != nil {
		return -1, err
	}
	if fd >= fdSetSize {
		syscall.Close(fd)
		return -1, fmt.Errorf("descriptor %d is beyond select's reach", fd)
	}
	syscall.CloseOnExec(fd)
	return fd, syscall.SetNonblock(fd, false)
}

// close shuts down every connection; blocked peers observe EOF.
func (p *Proc) close() {
	for i := range p.in {
		if in := &p.in[i]; in.fd >= 0 {
			syscall.Close(in.fd)
			in.fd = -1
		}
	}
}

// link is how a packet moves between processes: a real serialization — the
// value is encoded at the send site, shipped through the kernel and decoded
// out of the peer's inbox when the body takes it, which is exactly the
// per-word cost the §4.1 model calls tw and the in-process links calibrate
// to ~0. Time is wall-clock; the failure policy is the dead link: a peer
// that exits mid-protocol fails the rank that waits for it (the job's own
// timeout bounds everything else).
type link Proc

// linkDown is the panic value of a rank that fails only because a peer's
// link died — the peer failed first, so Run reports the peer's own failure
// in preference.
type linkDown string

// down is the rank failing on its dead link to (or from) peer.
func (l *link) down(dir string, peer int, err error) linkDown {
	return linkDown(fmt.Sprintf("mpbackend: rank %d: link %s rank %d: %v", l.Rank(), dir, peer, err))
}

// Put encodes and ships one frame to dst. The value is fully serialized
// before Put returns, so the receiver always gets private storage and a
// move costs the same as a borrow; an owned value is relinquished all the
// same, so the ownership discipline is checked identically on every link.
// The send never blocks in the kernel: while dst's socket buffer is full the
// rank takes in what its peers are sending, which keeps ranks that all write
// first deadlock-free.
func (l *link) Put(dst int, pkt rank.Packet) {
	l.encBuf = appendFrame(l.encBuf[:0], pkt.Tag, pkt.Owned, pkt.Value)
	for frame := l.encBuf; len(frame) > 0; {
		n, err := syscall.SendmsgN(l.in[dst].fd, frame, nil, nil, syscall.MSG_DONTWAIT)
		switch err {
		case nil:
			frame = frame[n:]
		case syscall.EAGAIN:
			l.drain(dst)
		case syscall.EINTR:
		default:
			panic(l.down("to", dst, err))
		}
	}
	pkt.Relinquish()
}

// drain blocks until a peer has sent something or dst can be written, and
// reads what the peers have sent into their inboxes.
func (l *link) drain(dst int) {
	var rd, wr fdSet
	for i := range l.in {
		if in := &l.in[i]; in.fd >= 0 && in.err == nil {
			rd.add(in.fd)
		}
	}
	wr.add(l.in[dst].fd)
	runtime.Gosched() // about to wait: see Take
	if err := await(&rd, &wr); err != nil {
		panic(fmt.Sprintf("mpbackend: rank %d: select: %v", l.Rank(), err))
	}
	for i := range l.in {
		if in := &l.in[i]; in.fd >= 0 && rd.has(in.fd) {
			in.fill()
		}
	}
}

// fill reads from the socket once, blocking until the peer has sent
// something or the link is over — io.EOF if it closed in good order.
func (in *inbox) fill() {
	n, err := syscall.Read(in.fd, in.space())
	if n > 0 {
		in.w += n
	} else if err == nil {
		in.err = io.EOF
	} else if err != syscall.EINTR {
		in.err = err
	}
}

// Take decodes the next frame out of src's inbox, blocking in one recv on
// that peer while the frame is incomplete. A dead or garbled link surfaces
// as a panic instead of a hang, but only after the frames delivered before
// it: a peer closing right after its last send never loses that send.
func (l *link) Take(src, want int) rank.Packet {
	in := &l.in[src]
	for {
		pkt, ok, err := in.next(l.ScratchArena())
		if ok {
			return pkt
		}
		if err == nil {
			err = in.err
		}
		if err != nil {
			panic(l.down("from", src, err))
		}
		// The body never parks: it waits in system calls. Left at that it
		// is one goroutine on one scheduler tick for the whole job, which
		// the runtime's monitor thread answers after 10 ms by taking the P
		// of a rank it finds in a system call, at every 20 µs tick of its
		// own from then on — a fifth of the CPU when the ranks share one,
		// and not the same fifth from one job to the next. A scheduling
		// point before each wait keeps the monitor asleep, and is where the
		// watchdog's timer and the collector get their turn.
		runtime.Gosched()
		in.fill()
	}
}

// Swap writes, then reads: a Put that finds the socket full reads while it
// waits, which keeps both sides writing first deadlock-free.
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
