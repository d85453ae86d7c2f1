// Package backend is the native execution backend: a second implementation
// of the coll.Comm communicator in which group members are plain goroutines
// on the host, point-to-point messages are real channel transfers of
// algebra values, and time is wall-clock — per-rank time.Now deltas from a
// barrier-synchronized start — instead of the virtual clocks of package
// machine.
//
// The two backends answer different questions. The virtual machine runs
// the data flow for real but *times* it with the §4.1 cost-model
// arithmetic, so its makespans are deterministic and comparable with the
// paper's closed-form estimates. The native backend times nothing and
// simulates nothing: the arithmetic inside the operators is the
// computation, channel rendezvous and goroutine scheduling are the message
// start-ups, and the measured makespan is the host's actual cost of the
// program. Because every collective in package coll is written against
// coll.Comm, the whole collective library — and every optimization-rule
// rewrite — runs unmodified on either backend, which is what makes the
// conformance harness in this package possible.
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

// packet is one in-flight message. Unlike the virtual machine's packet it
// carries no departure clock — arrival order and wall time are the truth.
type packet struct {
	value algebra.Value
	tag   int
	// owned marks an ownership-transferring message: the receiver may
	// write the value in place (it is the new owner); the sender has
	// relinquished it. Borrowing sends leave it false — the value is a
	// shared, frozen reference.
	owned bool
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

	// abort is closed, once, by the first rank failure or by the watchdog
	// and cancels every blocked rank. A world with a closed abort is
	// discarded, so the channel is never reused.
	abort   chan struct{}
	aborted atomic.Bool
	failure string // what Run raises: the failing rank's panic, or the watchdog's report
	// lost is set by a rank whose goroutine ended inside body
	// (runtime.Goexit, as t.FailNow calls): the run is not a failure, but
	// the world is a rank short and is discarded.
	lost atomic.Bool
}

// cancel records the run's first failure and cancels every blocked rank;
// later failures, and the cancelled ranks' own aborts, are dropped.
func (w *world) cancel(failure string) {
	if w.aborted.CompareAndSwap(false, true) {
		w.failure = failure
		close(w.abort)
	}
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
		abort:  make(chan struct{}),
	}
	for r := range w.procs {
		p := &Proc{
			rank:  r,
			w:     w,
			in:    make([]atomic.Pointer[chan packet], m.P),
			arena: algebra.NewArena(),
			wake:  make(chan struct{}, 1),
		}
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
			if e != errAborted {
				w.cancel(fmt.Sprintf("backend: rank %d failed: %v", p.rank, e))
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

// Proc is one native rank. It implements coll.Comm, so every collective of
// package coll runs on it directly. Its methods must only be called from
// the goroutine running that rank's SPMD body.
type Proc struct {
	rank int
	w    *world
	// wake releases the parked rank into the next run's body; closing it
	// ends the rank's goroutine.
	wake chan struct{}
	// in[src] lazily materializes the channel carrying messages from rank
	// src to this rank, so Run setup is O(messages actually exchanged)
	// rather than O(P²) channel allocations per run.
	in []atomic.Pointer[chan packet]
	// timer is the reusable receive-timeout timer; a per-take time.After
	// would allocate a fresh timer (and leak it until expiry) on every
	// receive.
	timer *time.Timer
	// arena is the rank's scratch-buffer pool, reset at the start of every
	// run; package coll's collectives draw their combining buffers from it.
	arena *algebra.Arena
	// elapsed is the rank's wall time from the run's start to body return.
	elapsed time.Duration
	// sent/recvd/sentWords/ops mirror the virtual machine's counters so
	// both backends report comparable volume figures.
	sent, recvd int
	sentWords   int
	ops         float64
	tagseq      int
	marks       []StageMark
	// wait is the rank's published blocking state (nil while running);
	// finished flips when the rank's body returns. Both are read by the
	// deadlock watchdog and only written by the rank's own goroutine.
	wait     atomic.Pointer[waitInfo]
	finished atomic.Bool
}

// mailbox returns the channel carrying messages from src to p, creating it
// on first use. Sender and receiver may race to create the same pair's
// channel; the compare-and-swap makes the first one win and both see it.
func (p *Proc) mailbox(src int) chan packet {
	if ch := p.in[src].Load(); ch != nil {
		return *ch
	}
	ch := make(chan packet, p.w.mailboxCap)
	if p.in[src].CompareAndSwap(nil, &ch) {
		return ch
	}
	return *p.in[src].Load()
}

// ScratchArena returns the rank's scratch-buffer arena. The collectives in
// package coll draw their combining buffers from it, so the log-p rounds of
// a reduction or scan reuse storage across runs instead of allocating.
// Values backed by the arena stay valid until the machine's next Run.
func (p *Proc) ScratchArena() *algebra.Arena { return p.arena }

// Rank is this rank's index, 0 ≤ Rank < P.
func (p *Proc) Rank() int { return p.rank }

// Size is the machine size.
func (p *Proc) Size() int { return len(p.w.procs) }

// NextTag returns a fresh message tag. As on the virtual machine, the
// per-rank counters of an SPMD program stay synchronized, giving each
// collective a distinct tag without coordination.
func (p *Proc) NextTag() int {
	p.tagseq++
	return p.tagseq
}

// Compute records n charged units of local computation. The native
// backend does not advance any clock here: the arithmetic that the charge
// accounts for has already been executed for real inside the operator, so
// its cost is in the wall-clock measurement. The counter is kept so the
// run's Result reports the same work figure as the virtual machine's.
func (p *Proc) Compute(n float64) {
	if n < 0 {
		panic("backend: negative computation charge")
	}
	p.ops += n
}

// Mark records a stage-boundary annotation at the current wall offset.
func (p *Proc) Mark(label string) {
	p.marks = append(p.marks, StageMark{Label: label, At: time.Since(p.w.start)})
}

// outbound prepares v for the wire: under TransportCopy every payload is
// deep-copied at the send site (the memory-isolation baseline); under
// TransportZeroCopy the reference itself crosses.
func (p *Proc) outbound(v algebra.Value) algebra.Value {
	if p.w.transport == TransportCopy {
		return algebra.CloneValue(v)
	}
	return v
}

// Send ships v to rank dst over the channel pair — a real transfer of the
// (shared, immutable-by-convention) value reference, a borrow: the sender
// may still read v afterwards, and neither side may write it.
func (p *Proc) Send(dst int, v algebra.Value, tag int) {
	if dst == p.rank {
		panic(fmt.Sprintf("backend: rank %d sending to itself", p.rank))
	}
	p.checkRank(dst)
	p.w.startupWait()
	p.sent++
	p.sentWords += v.Words()
	p.put(dst, packet{value: p.outbound(v), tag: tag})
}

// SendMove ships v to rank dst transferring ownership: the receiver (via
// RecvOwned) becomes the value's owner and may write it in place; the
// sender relinquishes it and must not observe it again. For a *FlatTuple
// the relinquishment is enforced — the tuple is poisoned and any later
// access by the sender panics until its arena reclaims the buffer at the
// next run's reset. Under TransportZeroCopy this makes a large-m send
// O(1): only the reference crosses the mailbox. Under TransportCopy the
// receiver gets an owned deep copy and the sender's value is poisoned all
// the same, so a program's ownership discipline is checked identically on
// both transports.
func (p *Proc) SendMove(dst int, v algebra.Value, tag int) {
	if dst == p.rank {
		panic(fmt.Sprintf("backend: rank %d sending to itself", p.rank))
	}
	p.checkRank(dst)
	p.w.startupWait()
	p.sent++
	p.sentWords += v.Words()
	wire := p.outbound(v)
	if ft, ok := v.(*algebra.FlatTuple); ok {
		// Poison after outbound: under TransportCopy the clone reads v.
		ft.MarkMoved()
	}
	p.put(dst, packet{value: wire, tag: tag, owned: true})
}

// put enqueues a packet for dst. The fast path is a plain buffered-channel
// send; when the mailbox is full the rank stays cancellable — by a failing
// peer or by the watchdog, to which it publishes its blocked-on state when
// one is armed, so a send-side deadlock (every mailbox full, nobody
// receiving) is diagnosed like a receive-side one.
func (p *Proc) put(dst int, pkt packet) {
	ch := p.w.procs[dst].mailbox(p.rank)
	select {
	case ch <- pkt:
		return
	default:
	}
	if p.w.watched {
		p.wait.Store(&waitInfo{dir: "sending to", peer: dst, tag: pkt.tag, since: time.Now()})
		defer p.wait.Store(nil)
	}
	select {
	case ch <- pkt:
	case <-p.w.abort:
		panic(errAborted)
	}
}

// TrySend is the non-blocking variant of Send: it enqueues v for dst if the
// mailbox has room and reports whether it did. Nothing is charged on
// failure. Fault-injecting decorators build their retry loops on it so a
// full mailbox never wedges a rank that still has protocol work to do.
func (p *Proc) TrySend(dst int, v algebra.Value, tag int) bool {
	if dst == p.rank {
		panic(fmt.Sprintf("backend: rank %d sending to itself", p.rank))
	}
	p.checkRank(dst)
	select {
	case p.w.procs[dst].mailbox(p.rank) <- packet{value: p.outbound(v), tag: tag}:
	default:
		return false
	}
	p.w.startupWait()
	p.sent++
	p.sentWords += v.Words()
	return true
}

// Recv receives the next message from rank src, blocking until it
// arrives.
func (p *Proc) Recv(src, tag int) algebra.Value {
	p.checkRank(src)
	pkt := p.take(src, tag, "waiting for a message from")
	return pkt.value
}

// Exchange performs the simultaneous bidirectional swap with partner:
// both sides enqueue, then dequeue, which the buffered channels keep
// deadlock-free.
func (p *Proc) Exchange(partner int, v algebra.Value, tag int) algebra.Value {
	if partner == p.rank {
		panic(fmt.Sprintf("backend: rank %d exchanging with itself", p.rank))
	}
	p.checkRank(partner)
	p.w.startupWait()
	p.sent++
	p.sentWords += v.Words()
	p.put(partner, packet{value: p.outbound(v), tag: tag})
	pkt := p.take(partner, tag, "deadlocked in exchange with")
	return pkt.value
}

// RecvOwned receives the next message from rank src like Recv and reports
// whether the message transferred ownership: when owned is true the caller
// is the value's new owner and may write it in place (a received
// *FlatTuple has its move poison cleared — the adoption point of the
// ownership protocol); when false the value is a borrowed shared reference
// and must be treated as frozen.
func (p *Proc) RecvOwned(src, tag int) (v algebra.Value, owned bool) {
	p.checkRank(src)
	pkt := p.take(src, tag, "waiting for a message from")
	if pkt.owned {
		if ft, ok := pkt.value.(*algebra.FlatTuple); ok {
			ft.MarkOwned()
		}
	}
	return pkt.value, pkt.owned
}

// RecvAny dequeues the next message from rank src regardless of its tag,
// returning the value and the tag it was sent under. It blocks like Recv
// (same timeout and watchdog discipline) but performs no tag check — it is
// the raw link layer that fault-injecting decorators, which multiplex
// their own protocol over one wire tag, read from.
func (p *Proc) RecvAny(src int) (algebra.Value, int) {
	p.checkRank(src)
	pkt := p.take(src, anyTag, "waiting for a message from")
	return pkt.value, pkt.tag
}

// TryRecvAny is the non-blocking variant of RecvAny: it dequeues an
// already-arrived message from src, if there is one.
func (p *Proc) TryRecvAny(src int) (algebra.Value, int, bool) {
	p.checkRank(src)
	select {
	case pkt := <-p.mailbox(src):
		p.recvd++
		return pkt.value, pkt.tag, true
	default:
		return nil, 0, false
	}
}

// anyTag makes take skip the tag check; it is never a valid message tag
// (NextTag counts up from 1, subgroup tags are offset positive).
const anyTag = -1 << 62

// errAborted is the sentinel panic value of a rank cancelled because the
// run is already lost — a peer failed, or the deadlock watchdog fired. Run
// raises the failure that caused the cancellation, never the sentinel.
var errAborted = fmt.Errorf("backend: run aborted")

// take dequeues the next packet from src with the timeout and tag
// discipline of the virtual machine. A message that is already there skips
// the timer and the wait-state publication entirely; a rank that has to
// block stays cancellable. The timeout uses the rank's reusable timer:
// stopped and drained after every successful receive, so a receive-heavy
// run arms one timer object instead of allocating one per message the way
// time.After would.
func (p *Proc) take(src, tag int, verb string) packet {
	var pkt packet
	ch := p.mailbox(src)
	select {
	case pkt = <-ch:
		return p.accept(pkt, src, tag)
	default:
	}
	w := p.w
	if w.watched {
		p.wait.Store(&waitInfo{dir: blockDir(verb), peer: src, tag: tag, since: time.Now()})
		defer p.wait.Store(nil)
	}
	// A nil timer channel blocks forever, so Timeout == 0 leaves only the
	// message and the abort to wait for.
	var timeoutC <-chan time.Time
	if w.timeout > 0 {
		if p.timer == nil {
			p.timer = time.NewTimer(w.timeout)
		} else {
			p.timer.Reset(w.timeout)
		}
		timeoutC = p.timer.C
	}
	select {
	case pkt = <-ch:
		if timeoutC != nil && !p.timer.Stop() {
			// The timer fired concurrently with the receive; drain it
			// so the next Reset starts from a clean channel.
			select {
			case <-p.timer.C:
			default:
			}
		}
	case <-timeoutC:
		panic(fmt.Sprintf("backend: rank %d timed out after %v %s rank %d (tag %d); %d messages received, %d sent so far",
			p.rank, w.timeout, verb, src, tag, p.recvd, p.sent))
	case <-w.abort:
		panic(errAborted)
	}
	return p.accept(pkt, src, tag)
}

// accept performs the tag check of the virtual machine and counts the
// receive. A tag of anyTag skips the check (raw-link receives).
func (p *Proc) accept(pkt packet, src, tag int) packet {
	if tag != anyTag && pkt.tag != tag {
		panic(fmt.Sprintf("backend: rank %d expected tag %d from rank %d, got %d", p.rank, tag, src, pkt.tag))
	}
	p.recvd++
	return pkt
}

// blockDir maps take's panic verb to the watchdog report's direction.
func blockDir(verb string) string {
	if verb == "deadlocked in exchange with" {
		return "exchanging with"
	}
	return "receiving from"
}

func (p *Proc) checkRank(r int) {
	if r < 0 || r >= len(p.w.procs) {
		panic(fmt.Sprintf("backend: rank %d out of range [0,%d)", r, len(p.w.procs)))
	}
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
	if w.aborted.Load() || w.lost.Load() {
		m.discard()
	}
	if w.aborted.Load() {
		panic(w.failure)
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
		res.Messages += p.sent
		res.Words += p.sentWords
		res.Ops += p.ops
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
				fmt.Fprintf(&b, "  rank %d: finished\n", p.rank)
				continue
			}
			if pw := p.wait.Load(); pw != nil {
				fmt.Fprintf(&b, "  rank %d: blocked %s rank %d (tag %d) for %v\n",
					p.rank, pw.dir, pw.peer, pw.tag, now.Sub(pw.since).Round(time.Millisecond))
			} else {
				fmt.Fprintf(&b, "  rank %d: running\n", p.rank)
			}
		}
		w.cancel(b.String())
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
		p.sent, p.recvd, p.sentWords = 0, 0, 0
		p.ops = 0
		p.tagseq = 0
		p.marks = p.marks[:0]
		p.elapsed = 0
		p.finished.Store(false)
		p.wait.Store(nil)
		// The previous run's join ordered every rank's arena use before
		// this reset.
		p.arena.Reset()
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
