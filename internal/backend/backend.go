// Package backend is the native execution backend: the shared rank of
// package rank over a link in which group members are plain goroutines on
// the host, point-to-point messages are real channel transfers of algebra
// values, and time is wall-clock — per-rank time.Now deltas from a
// barrier-synchronized start — instead of the virtual clocks of package
// machine. The message discipline is the core's; this package writes only
// how a packet moves (type link) and how a run starts, joins and fails.
//
// The two backends answer different questions. The virtual machine runs
// the data flow for real but *times* it with the §4.1 cost-model
// arithmetic, so its makespans are deterministic and comparable with the
// paper's closed-form estimates. The native backend times nothing and
// simulates nothing: the arithmetic inside the operators is the
// computation, channel rendezvous and goroutine scheduling are the message
// start-ups, and the measured makespan is the host's actual cost of the
// program. Because a rank of either is a coll.Comm, the whole collective
// library — and every optimization-rule rewrite — runs unmodified on both,
// which is what makes the conformance harness in this package possible.
//
// # Timing methodology
//
// Every Run follows the same discipline, shared by the experiment
// harness (exper.NativeHost) and the calibration probes (package
// calib):
//
//   - Barrier start. A machine's P rank goroutines are spawned once, by
//     its first Run, and stay parked between runs. A run takes one
//     timestamp — the origin of every rank's clock — and then releases
//     the parked ranks, so goroutine spawn cost and stack growth never
//     pollute the measurement and no rank's clock gets a head start.
//   - Per-rank elapsed time. Each rank records its own time.Now delta
//     from that shared origin to the end of its program, giving a
//     per-rank profile (Result.Ranks).
//   - Makespan. The run's reported cost is the maximum per-rank elapsed
//     time — the finish of the last rank — matching how the §4.1 model
//     prices a collective by its slowest processor.
//
// Single runs of short programs sit near timer resolution and scheduler
// noise; callers that need stable numbers iterate the operation inside
// one Run to amortize the timer, repeat the run several times, and take
// the minimum as the undisturbed estimate. exper.NativeHost's launcher
// does exactly this for every job it times.
package backend

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/rank"
)

// DefaultTimeout bounds how long a rank may block in Recv before the run
// is aborted with a deadlock diagnosis.
const DefaultTimeout = 30 * time.Second

// TransportMode selects how a payload crosses the mailbox.
type TransportMode int

const (
	// TransportZeroCopy (the default) hands the value reference through
	// the channel without copying. Borrowing sends (Send, Exchange) freeze
	// the value under the owned-scratch discipline; moving sends
	// (SendMove) additionally transfer write ownership to the receiver,
	// making a large-m transfer O(1) regardless of block size.
	TransportZeroCopy TransportMode = iota
	// TransportCopy deep-copies every payload at the send site, modeling a
	// memory-isolation boundary (as a multi-process transport forces on
	// every message) in-process. It is the O(m) baseline the zero-copy
	// benchmarks and conformance runs compare against.
	TransportCopy
)

// String names the mode as the collbench -transport flag spells it.
func (t TransportMode) String() string {
	switch t {
	case TransportZeroCopy:
		return "zerocopy"
	case TransportCopy:
		return "copy"
	}
	return fmt.Sprintf("TransportMode(%d)", int(t))
}

// ParseTransport maps a -transport flag value to its mode.
func ParseTransport(s string) (TransportMode, error) {
	switch s {
	case "zerocopy":
		return TransportZeroCopy, nil
	case "copy":
		return TransportCopy, nil
	}
	return 0, fmt.Errorf("unknown transport %q (want zerocopy or copy)", s)
}

// Machine is a native shared-memory machine of P ranks. Create one with
// New, then call Run to execute an SPMD program; a Machine runs one
// program at a time. Its rank goroutines live from its first Run until it
// becomes unreachable (see Run), so it needs no closing and must not be
// copied once it has run.
type Machine struct {
	// P is the number of ranks (goroutines).
	P int
	// Timeout bounds how long a rank may block in Recv or Exchange
	// before the run is aborted with a deadlock diagnosis. Zero means no
	// bound (and removes a per-receive timer, which matters in tight
	// benchmarks).
	Timeout time.Duration
	// Startup, when non-zero, makes every sender busy-wait that long
	// before enqueuing a message — an injected per-message start-up for
	// emulating networks where start-up dominates even more than
	// goroutine scheduling already does. Zero (the default) measures the
	// host's bare channel cost.
	Startup time.Duration
	// MailboxCap overrides the buffer depth per directed rank pair. Zero
	// means the default (4), which is enough for every collective in
	// package coll; fault-injecting decorators that put retransmissions
	// and acknowledgements on the same links want more headroom.
	MailboxCap int
	// Transport selects the payload-passing discipline: TransportZeroCopy
	// (the default) hands references through the mailbox, TransportCopy
	// deep-copies every payload at the send site. See TransportMode.
	Transport TransportMode
	// Watchdog, when non-zero, arms the deadlock watchdog: a monitor
	// that fires when every unfinished rank has been blocked in the same
	// send or receive for at least this long — a quiesced-but-unfinished
	// run. Instead of hanging until Timeout (or forever), the run is
	// aborted with a per-rank blocked-on report naming each rank's peer,
	// tag, direction and wait duration. The watchdog costs two atomic
	// stores per blocking operation, so it is off by default.
	Watchdog time.Duration

	// ranks are the parked rank goroutines, spawned by the first Run and
	// discarded by a run that fails.
	ranks *parked
}

// New creates a native machine with p ranks and the default timeout.
func New(p int) *Machine {
	if p < 1 {
		panic(fmt.Sprintf("backend: need at least 1 rank, got %d", p))
	}
	return &Machine{P: p, Timeout: DefaultTimeout}
}

// mailboxCap is the default buffer depth per directed rank pair. As on the
// virtual machine, the collectives never have more than a couple of
// outstanding messages per pair.
const mailboxCap = 4

// world is what a machine's ranks share. The rank goroutines reference it
// and never the Machine, so an unreachable Machine can be collected while
// its ranks are parked (see parked); Run copies the Machine's settings in
// before every release.
type world struct {
	timeout, startup time.Duration
	mailboxCap       int
	transport        TransportMode
	// watched is Watchdog > 0: blocking ranks publish their wait state.
	watched bool

	procs []*Proc
	// body and start are the run's program and clock origin, written
	// before the ranks are released.
	body  func(p *Proc)
	start time.Time
	// running counts the ranks still in body; the one that takes it to
	// zero signals joined.
	running atomic.Int32
	joined  chan struct{}

	// abort is the run's cancellation: the first rank failure, or the
	// watchdog, cancels every blocked rank and is what Run raises. A world
	// with a triggered abort is discarded, so it is never reused.
	abort *rank.Abort
	// lost is set by a rank whose goroutine ended inside body
	// (runtime.Goexit, as t.FailNow calls): the run is not a failure, but
	// the world is a rank short and is discarded.
	lost atomic.Bool
}

// parked is a Machine's handle on its rank goroutines. Between runs each
// rank waits on its wake channel, keeping its grown stack, its timer, its
// arena and its mailboxes; closing the channels ends the goroutines. The
// ranks hold the world, not this handle, so when the Machine becomes
// unreachable the handle does too and its finalizer releases them.
type parked struct{ *world }

func (m *Machine) park() *world {
	if m.ranks != nil && len(m.ranks.procs) == m.P {
		return m.ranks.world
	}
	m.discard()
	w := &world{
		procs:  make([]*Proc, m.P),
		joined: make(chan struct{}, 1),
		abort:  rank.NewAbort(),
	}
	for r := range w.procs {
		p := &Proc{
			w:    w,
			in:   make([]atomic.Pointer[chan rank.Packet], m.P),
			wake: make(chan struct{}, 1),
		}
		p.Init(r, m.P, (*link)(p), algebra.NewArena(), p.mark)
		w.procs[r] = p
		go p.serve()
	}
	m.ranks = &parked{w}
	runtime.SetFinalizer(m.ranks, (*parked).release)
	return w
}

// release ends the rank goroutines. It runs once per world: from discard,
// which clears the finalizer, or from the finalizer.
func (h *parked) release() {
	for _, p := range h.procs {
		close(p.wake)
	}
}

// discard drops the machine's ranks; the next Run spawns fresh ones.
func (m *Machine) discard() {
	if m.ranks != nil {
		runtime.SetFinalizer(m.ranks, nil)
		m.ranks.release()
		m.ranks = nil
	}
}

// serve is a rank's goroutine: one body per release, until released for
// good.
func (p *Proc) serve() {
	for range p.wake {
		if !p.run() {
			return
		}
	}
}

// run executes the run's body on this rank and joins. It reports false
// when the goroutine is ending inside body rather than returning from it.
func (p *Proc) run() (returned bool) {
	w := p.w
	defer func() {
		p.elapsed = time.Since(w.start)
		p.finished.Store(true)
		if e := recover(); e != nil {
			if e != rank.ErrAborted {
				w.abort.Fail(fmt.Sprintf("backend: rank %d failed: %v", p.Rank(), e))
			}
			returned = true
		} else if !returned {
			w.lost.Store(true)
		}
		if w.running.Add(-1) == 0 {
			w.joined <- struct{}{}
		}
	}()
	w.body(p)
	return true
}

// waitInfo is one rank's published blocking state, read by the watchdog.
// A waitInfo is immutable once published; a rank publishes a fresh one on
// every blocking slow path and clears the pointer when it unblocks.
type waitInfo struct {
	// dir is the blocked direction: "receiving from", "sending to" or
	// "deadlocked in exchange with".
	dir string
	// peer and tag identify the transfer being waited on.
	peer, tag int
	// since is when the rank started waiting.
	since time.Time
}

// StageMark is one stage-boundary annotation on a rank's wall-clock
// timeline, recorded by Mark (the generic executor marks every program
// stage).
type StageMark struct {
	// Label names the stage.
	Label string
	// At is the offset from the barrier-synchronized start.
	At time.Duration
}

// Proc is one native rank: the shared rank core — so it is a coll.Comm and
// every collective of package coll runs on it directly — over the mailbox
// link below. Its arena is reset at the start of every run, and Compute
// only counts: the arithmetic it charges has already run for real inside
// the operator, so its cost is in the wall-clock measurement. Its methods
// must only be called from the goroutine running that rank's SPMD body.
type Proc struct {
	rank.Core
	w *world
	// wake releases the parked rank into the next run's body; closing it
	// ends the rank's goroutine.
	wake chan struct{}
	// in[src] lazily materializes the channel carrying messages from rank
	// src to this rank, so Run setup is O(messages actually exchanged)
	// rather than O(P²) channel allocations per run.
	in    []atomic.Pointer[chan rank.Packet]
	timer rank.Timer
	// elapsed is the rank's wall time from the run's start to body return.
	elapsed time.Duration
	marks   []StageMark
	// wait is the rank's published blocking state (nil while running);
	// finished flips when the rank's body returns. Both are read by the
	// deadlock watchdog and only written by the rank's own goroutine.
	wait     atomic.Pointer[waitInfo]
	finished atomic.Bool
}

// mark is the core's mark hook: a stage-boundary annotation at the current
// wall offset.
func (p *Proc) mark(label string) {
	p.marks = append(p.marks, StageMark{Label: label, At: time.Since(p.w.start)})
}

// link is how a native packet moves: a buffered channel per directed rank
// pair, wall-clock time, and a failure policy of cancellation by a failing
// peer or the watchdog plus the receive timeout.
type link Proc

// mailbox returns the channel carrying messages from src to l, creating it
// on first use. Sender and receiver may race to create the same pair's
// channel; the compare-and-swap makes the first one win and both see it.
func (l *link) mailbox(src int) chan rank.Packet {
	if ch := l.in[src].Load(); ch != nil {
		return *ch
	}
	ch := make(chan rank.Packet, l.w.mailboxCap)
	if l.in[src].CompareAndSwap(nil, &ch) {
		return ch
	}
	return *l.in[src].Load()
}

// outbound prepares pkt for the mailbox: under TransportCopy the payload is
// deep-copied at the send site, under TransportZeroCopy the reference
// itself crosses; either way the sender of an owned packet relinquishes its
// value before the receiver can see it.
func (l *link) outbound(pkt rank.Packet) rank.Packet {
	sent := pkt
	if l.w.transport == TransportCopy {
		pkt.Value = algebra.CloneValue(sent.Value)
	}
	sent.Relinquish()
	return pkt
}

// Put enqueues a packet for dst. The fast path is a plain buffered-channel
// send; when the mailbox is full the rank stays cancellable — by a failing
// peer or by the watchdog, to which it publishes its blocked-on state when
// one is armed, so a send-side deadlock (every mailbox full, nobody
// receiving) is diagnosed like a receive-side one.
func (l *link) Put(dst int, pkt rank.Packet) {
	l.w.startupWait()
	pkt = l.outbound(pkt)
	ch := (*link)(l.w.procs[dst]).mailbox(l.Rank())
	select {
	case ch <- pkt:
		return
	default:
	}
	if l.w.watched {
		l.wait.Store(&waitInfo{dir: "sending to", peer: dst, tag: pkt.Tag, since: time.Now()})
		defer l.wait.Store(nil)
	}
	select {
	case ch <- pkt:
	case <-l.w.abort.Done():
		panic(rank.ErrAborted)
	}
}

// TryPut enqueues pkt if the mailbox has room, so a full mailbox never
// wedges a rank that still has protocol work to do.
func (l *link) TryPut(dst int, pkt rank.Packet) bool {
	select {
	case (*link)(l.w.procs[dst]).mailbox(l.Rank()) <- l.outbound(pkt):
		l.w.startupWait()
		return true
	default:
		return false
	}
}

// Take dequeues the next packet from src.
func (l *link) Take(src, want int) rank.Packet {
	return l.take(src, want, "waiting for a message from", "receiving from")
}

// Swap enqueues, then dequeues, which the buffered channels keep
// deadlock-free.
func (l *link) Swap(peer int, pkt rank.Packet) rank.Packet {
	l.Put(peer, pkt)
	return l.take(peer, pkt.Tag, "deadlocked in exchange with", "exchanging with")
}

// TryTake dequeues an already-arrived packet from src.
func (l *link) TryTake(src int) (rank.Packet, bool) {
	select {
	case pkt := <-l.mailbox(src):
		return pkt, true
	default:
		return rank.Packet{}, false
	}
}

// take dequeues the next packet from src. A message that is already there
// skips the timer and the wait-state publication entirely; a rank that has
// to block stays cancellable and, with a Timeout, bounded. verb words the
// timeout diagnosis, dir the watchdog's.
func (l *link) take(src, want int, verb, dir string) rank.Packet {
	ch := l.mailbox(src)
	select {
	case pkt := <-ch:
		return pkt
	default:
	}
	w := l.w
	if w.watched {
		l.wait.Store(&waitInfo{dir: dir, peer: src, tag: want, since: time.Now()})
		defer l.wait.Store(nil)
	}
	pkt, ok := rank.Await(ch, w.abort, &l.timer, w.timeout)
	if !ok {
		n := l.Counters()
		panic(fmt.Sprintf("backend: rank %d timed out after %v %s rank %d (tag %d); %d messages received, %d sent so far",
			l.Rank(), w.timeout, verb, src, want, n.Received, n.Sent))
	}
	return pkt
}

// startupWait busy-waits for the injected per-message start-up. A spin
// rather than a sleep: the emulated start-ups of interest sit well below
// the scheduler's sleep granularity.
func (w *world) startupWait() {
	if w.startup <= 0 {
		return
	}
	t0 := time.Now()
	for time.Since(t0) < w.startup {
	}
}

// Result summarises one native run.
type Result struct {
	// Makespan is the wall time from the barrier-synchronized start to
	// the last rank's finish — the native analogue of the virtual
	// machine's makespan.
	Makespan time.Duration
	// Ranks are the per-rank wall times from the same start.
	Ranks []time.Duration
	// Messages and Words count the point-to-point transfers and their
	// volume, comparable with the virtual machine's counters.
	Messages int
	Words    int
	// Ops is the computation charged via Compute across all ranks. The
	// native backend performs this work for real; the counter is kept so
	// both backends report the same work figure.
	Ops float64
	// Marks are the per-rank stage annotations ([rank][stage]).
	Marks [][]StageMark
}

// Run executes body as an SPMD program, once on every rank, and returns
// when every rank's body has finished. The ranks are goroutines parked
// since the machine's first Run: a run resets their state, takes the start
// timestamp all per-rank timings share, releases them and joins them. A
// panic in a rank's body cancels the ranks blocked on a send or receive,
// aborts the run and is re-raised on the caller's goroutine with the rank
// identified.
//
// The parked ranks keep their grown stacks, mailbox channels, timeout
// timers and scratch arenas, so every run after the first measures the
// steady state rather than per-run setup. They are released for good when
// the Machine becomes unreachable, and by a run that fails: it can leave
// packets in flight, so the next Run starts from fresh ranks.
func (m *Machine) Run(body func(p *Proc)) Result {
	w := m.park()
	w.reset()
	w.timeout, w.startup, w.transport = m.Timeout, m.Startup, m.Transport
	w.mailboxCap = mailboxCap
	if m.MailboxCap > 0 {
		w.mailboxCap = m.MailboxCap
	}
	w.watched = m.Watchdog > 0
	var wdStop, wdDone chan struct{}
	if w.watched {
		wdStop, wdDone = make(chan struct{}), make(chan struct{})
		go w.watch(m.Watchdog, wdStop, wdDone)
	}
	w.body = body
	w.running.Store(int32(len(w.procs)))
	w.start = time.Now()
	for _, p := range w.procs {
		p.wake <- struct{}{}
	}
	<-w.joined
	// The body may reference the Machine, which the parked ranks must not.
	w.body = nil
	if w.watched {
		close(wdStop)
		<-wdDone
	}
	failure := w.abort.Reason()
	if failure != "" || w.lost.Load() {
		m.discard()
	}
	if failure != "" {
		panic(failure)
	}
	res := Result{Ranks: make([]time.Duration, len(w.procs)), Marks: make([][]StageMark, len(w.procs))}
	nmarks := 0
	for _, p := range w.procs {
		nmarks += len(p.marks)
	}
	// Copy the marks, into one backing slice: p.marks is reused by the
	// next run.
	marks := make([]StageMark, 0, nmarks)
	for r, p := range w.procs {
		res.Ranks[r] = p.elapsed
		from := len(marks)
		marks = append(marks, p.marks...)
		res.Marks[r] = marks[from:len(marks):len(marks)]
		n := p.Counters()
		res.Messages += n.Sent
		res.Words += n.Words
		res.Ops += n.Ops
		if p.elapsed > res.Makespan {
			res.Makespan = p.elapsed
		}
	}
	return res
}

// watch is the deadlock watchdog: it samples every rank's published
// blocking state and fires when the run has quiesced without finishing —
// every unfinished rank stuck in the same send or receive for at least
// limit. (That condition is a true deadlock: a rank can only be unblocked
// by another rank, and all of them are waiting.) On firing it composes the
// per-rank blocked-on report and cancels every blocked rank, so Run
// returns a diagnosis instead of hanging until Timeout or forever.
func (w *world) watch(limit time.Duration, stop, done chan struct{}) {
	defer close(done)
	tick := limit / 8
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
		}
		now := time.Now()
		unfinished, quiesced := 0, true
		for _, p := range w.procs {
			if p.finished.Load() {
				continue
			}
			unfinished++
			pw := p.wait.Load()
			if pw == nil || now.Sub(pw.since) < limit {
				quiesced = false
				break
			}
		}
		if unfinished == 0 || !quiesced {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "backend: deadlock: every unfinished rank blocked for %v with no progress\n", limit)
		for _, p := range w.procs {
			if p.finished.Load() {
				fmt.Fprintf(&b, "  rank %d: finished\n", p.Rank())
				continue
			}
			if pw := p.wait.Load(); pw != nil {
				fmt.Fprintf(&b, "  rank %d: blocked %s rank %d (tag %d) for %v\n",
					p.Rank(), pw.dir, pw.peer, pw.tag, now.Sub(pw.since).Round(time.Millisecond))
			} else {
				fmt.Fprintf(&b, "  rank %d: running\n", p.Rank())
			}
		}
		w.abort.Fail(b.String())
		return
	}
}

// reset prepares the parked ranks for a fresh run. Counters, tag
// sequences, marks, and arenas restart from zero; mailbox channels persist
// (a completed run leaves them empty — any stray packet would have tripped
// the previous run's tag check or been consumed — and a failed run
// discards the ranks entirely).
func (w *world) reset() {
	for _, p := range w.procs {
		p.Reset()
		p.marks = p.marks[:0]
		p.elapsed = 0
		p.finished.Store(false)
		p.wait.Store(nil)
		// The previous run's join ordered every rank's arena use before
		// this reset.
		p.ScratchArena().Reset()
		// Defensively drain any packet a sloppy program sent but never
		// received, so it cannot satisfy a later run's matching tag.
		for s := range p.in {
			if ch := p.in[s].Load(); ch != nil {
				for len(*ch) > 0 {
					<-*ch
				}
			}
		}
	}
}
