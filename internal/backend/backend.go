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
	"sync"
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
	// Timeout bounds how long a rank may block in one Recv or Exchange
	// before the run is aborted with a deadlock diagnosis. The machine's
	// monitor enforces it by sampling, so the diagnosis comes no earlier
	// than Timeout and no later than 1.25 × Timeout after the receive
	// began, plus however late the runtime runs the monitor's timer. Zero
	// means no bound. A receive costs the same either way; an armed
	// Timeout is one pending runtime timer per run.
	Timeout time.Duration
	// MailboxCap overrides the buffer depth per directed rank pair. Zero
	// means the default (4), which is enough for every collective in
	// package coll. A fault-injecting link wants more headroom: one of its
	// messages can take two slots, as a duplicate or as a doomed copy and
	// its good copy. A run whose capacity differs from the previous run's
	// starts from fresh ranks.
	MailboxCap int
	// Transport selects the payload-passing discipline: TransportZeroCopy
	// (the default) hands references through the mailbox, TransportCopy
	// deep-copies every payload at the send site. See TransportMode.
	Transport TransportMode
	// Watchdog, when non-zero, arms the deadlock watchdog: the machine's
	// monitor fires when it has seen every unfinished rank blocked in the
	// same send or receive for at least this long — a quiesced-but-
	// unfinished run. Instead of hanging until Timeout (or forever), the
	// run is aborted with a per-rank blocked-on report naming each rank's
	// peer, tag, direction and wait duration; the window is Timeout's
	// (Watchdog … 1.25 × Watchdog). Arming it adds nothing to a send or
	// receive; it is off by default because Timeout alone already bounds
	// every receive.
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
	// timeout and watchdog are the run's armed limits: written by Run
	// before it arms the monitor, read by the monitor and, for the timeout
	// diagnosis, by a condemned rank.
	timeout, watchdog time.Duration
	transport         TransportMode
	// mailboxCap is the capacity the world's mailboxes are made with; a
	// run that wants another gets a fresh world.
	mailboxCap int

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
	// monitor's deadlock report, is what Run raises; whoever fails the run
	// then kicks the blocked ranks awake. A world with a triggered abort is
	// discarded, so it is never reused.
	abort *rank.Abort
	// lost is set by a rank whose goroutine ended inside body
	// (runtime.Goexit, as t.FailNow calls): the run is not a failure, but
	// the world is a rank short and is discarded.
	lost atomic.Bool

	mon monitor
}

// parked is a Machine's handle on its rank goroutines. Between runs each
// rank waits on its wake channel, keeping its grown stack, its arena and
// its mailboxes; closing the channels ends the goroutines. The
// ranks hold the world, not this handle, so when the Machine becomes
// unreachable the handle does too and its finalizer releases them.
type parked struct{ *world }

// park returns the machine's parked world, spawning a fresh one when there
// is none or the one there was built for another P or MailboxCap.
func (m *Machine) park() *world {
	capacity := mailboxCap
	if m.MailboxCap > 0 {
		capacity = m.MailboxCap
	}
	if m.ranks != nil && len(m.ranks.procs) == m.P && m.ranks.mailboxCap == capacity {
		return m.ranks.world
	}
	m.discard()
	w := &world{
		mailboxCap: capacity,
		procs:      make([]*Proc, m.P),
		joined:     make(chan struct{}, 1),
		abort:      rank.NewAbort(),
		mon:        monitor{seen: make([]uint64, m.P), since: make([]time.Time, m.P)},
	}
	for r := range w.procs {
		p := &Proc{
			w:    w,
			in:   make([]atomic.Pointer[chan rank.Packet], m.P),
			wake: make(chan struct{}, 1),
		}
		p.Init(r, m.P, (*link)(p), new(algebra.Arena), p.mark)
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
				w.fail(fmt.Sprintf("backend: rank %d failed: %v", p.Rank(), e))
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
	in []atomic.Pointer[chan rank.Packet]
	// elapsed is the rank's wall time from the run's start to body return.
	elapsed time.Duration
	marks   []StageMark
	// word is the rank's wait word — what it is blocked in, zero while it
	// runs (the layout is at publish) — and tag the tag of that transfer;
	// blocks numbers the rank's blocking operations. finished flips when
	// the rank's body returns. The rank's own goroutine writes them; the
	// monitor and a failing peer read word and tag, and the monitor alone
	// may set word's condemned bit.
	word     atomic.Uint64
	tag      atomic.Int64
	blocks   uint64
	finished atomic.Bool
}

// mark is the core's mark hook: a stage-boundary annotation at the current
// wall offset.
func (p *Proc) mark(label string) {
	p.marks = append(p.marks, StageMark{Label: label, At: time.Since(p.w.start)})
}

// link is how a native packet moves: a buffered channel per directed rank
// pair, wall-clock time, and a failure policy of cancellation by a failing
// peer or the monitor, which also enforces the receive timeout.
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
// send.
func (l *link) Put(dst int, pkt rank.Packet) {
	pkt = l.outbound(pkt)
	ch := (*link)(l.w.procs[dst]).mailbox(l.Rank())
	select {
	case ch <- pkt:
	default:
		l.putFull(ch, dst, pkt)
	}
}

// putFull is Put on a full mailbox: the rank stays cancellable, and
// publishes what it is blocked in, so a send-side deadlock (every mailbox
// full, nobody receiving) is diagnosed like a receive-side one.
func (l *link) putFull(ch chan rank.Packet, dst int, pkt rank.Packet) {
	l.publish(kindSend, dst, pkt.Tag)
	defer l.word.Store(0)
	select {
	case ch <- pkt:
	case <-l.w.abort.Done():
		panic(rank.ErrAborted)
	}
}

// Take dequeues the next packet from src.
func (l *link) Take(src, want int) rank.Packet {
	return l.take(kindRecv, src, want)
}

// Swap enqueues, then dequeues, which the buffered channels keep
// deadlock-free.
func (l *link) Swap(peer int, pkt rank.Packet) rank.Packet {
	l.Put(peer, pkt)
	return l.take(kindExchange, peer, pkt.Tag)
}

// message passes a message on and turns a poison packet into the
// cancellation it stands for. Every dequeue goes through it: a kick can
// race with a real message and leave its poison for the rank's next read.
func message(pkt rank.Packet) rank.Packet {
	if pkt.Tag == poisonTag {
		panic(rank.ErrAborted)
	}
	return pkt
}

// take dequeues the next packet from src. A message that is already there
// is all it touches. A rank that has to block publishes its wait word and
// then waits on its mailbox alone: a lost run reaches it there as a poison
// packet (see fail), and the timeout as the monitor's condemned bit in the
// word plus the same packet — the rank then raises the diagnosis itself,
// with its own counters.
func (l *link) take(kind, src, want int) rank.Packet {
	ch := l.mailbox(src)
	select {
	case pkt := <-ch:
		return message(pkt)
	default:
	}
	w := l.w
	l.publish(kind, src, want)
	if w.abort.Reason() != "" {
		l.word.Store(0)
		panic(rank.ErrAborted)
	}
	pkt := <-ch
	if l.word.Swap(0)&wordCondemned != 0 {
		n := l.Counters()
		panic(fmt.Sprintf("backend: rank %d timed out after %v %s rank %d (tag %d); %d messages received, %d sent so far",
			l.Rank(), w.timeout, kindText[kind].verb, src, want, n.Received, n.Sent))
	}
	return message(pkt)
}

// The wait word, most significant bits first: the rank's block sequence
// number (29 bits — two operations a tick apart never share one), the
// condemned bit, the kind of operation (never zero, so a published word
// never is) and the peer.
const (
	wordPeerBits  = 32
	wordKindShift = wordPeerBits
	wordCondemned = 1 << 34
	wordSeqShift  = 35

	kindRecv     = 1
	kindExchange = 2
	kindSend     = 3
)

func wordKind(word uint64) int { return int(word >> wordKindShift & 3) }
func wordPeer(word uint64) int { return int(word & (1<<wordPeerBits - 1)) }

// receiving reports whether word is a rank blocked on its mailbox — the
// ranks a kick can wake and a Timeout bounds.
func receiving(word uint64) bool {
	k := wordKind(word)
	return k == kindRecv || k == kindExchange
}

// kindText words a blocked operation: verb in the timeout diagnosis, dir in
// the watchdog's report.
var kindText = [...]struct{ verb, dir string }{
	kindRecv:     {"waiting for a message from", "receiving from"},
	kindExchange: {"deadlocked in exchange with", "exchanging with"},
	kindSend:     {"", "sending to"},
}

// poisonTag marks the packet that wakes a blocked receiver of a lost run.
// It is never a message tag: NextTag counts up from 1, subgroup tags are
// offset positive.
const poisonTag = -1 << 62

// publish announces that the rank is about to block in an operation of the
// given kind with peer: two atomic stores, no clock, no allocation. The
// tag goes first, so whoever reads a word reads that word's tag after it.
func (l *link) publish(kind, peer, tag int) {
	l.blocks++
	l.tag.Store(int64(tag))
	l.word.Store(l.blocks<<wordSeqShift | uint64(kind)<<wordKindShift | uint64(peer))
}

// kick wakes the rank if word says it is blocked in a receive, by putting a
// poison packet into the mailbox it waits on. A full mailbox takes none and
// needs none: its reader is not blocked.
func (p *Proc) kick(word uint64) {
	if !receiving(word) {
		return
	}
	if ch := p.in[wordPeer(word)].Load(); ch != nil {
		select {
		case *ch <- rank.Packet{Tag: poisonTag}:
		default:
		}
	}
}

// fail loses the run for reason, unless it is lost already, and wakes every
// rank blocked in a receive (a blocked sender watches the abort itself).
// This scan after the failure is stored pairs with take's check of the
// failure after its word is stored: a receiver either sees the failure
// before it blocks, or is seen blocked and woken.
func (w *world) fail(reason string) {
	w.abort.Fail(reason)
	for _, p := range w.procs {
		p.kick(p.word.Load())
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
// The parked ranks keep their grown stacks, mailbox channels and scratch
// arenas, and the world its monitor timer, so every run after the first
// measures the
// steady state rather than per-run setup. They are released for good when
// the Machine becomes unreachable, and by a run that fails: it can leave
// packets in flight, so the next Run starts from fresh ranks.
func (m *Machine) Run(body func(p *Proc)) Result {
	w := m.park()
	w.reset()
	w.timeout, w.watchdog, w.transport = m.Timeout, m.Watchdog, m.Transport
	w.body = body
	w.running.Store(int32(len(w.procs)))
	w.arm()
	w.start = time.Now()
	for _, p := range w.procs {
		p.wake <- struct{}{}
	}
	<-w.joined
	w.disarm()
	// The body may reference the Machine, which the parked ranks must not.
	w.body = nil
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

// monitor is a world's one timer: armed when a run with a Timeout or a
// Watchdog releases the ranks, stopped when they have joined, and in
// between ticking at an eighth of the smaller limit to sample the ranks'
// wait words. The ranks never touch it. What it knows of time is its own:
// a rank publishes no clock reading, so a wait is measured from the tick
// that first saw it, and a limit fires between limit and 1.25 × limit after
// the wait began — a tick to be seen, eight to be seen long enough, and one
// more when the runtime ran the tick that saw it late — plus however late
// the runtime runs the tick that fires. Ticks are due on the schedule arm
// sets, not a tick after the last one ran, so lateness does not add up.
type monitor struct {
	// mu orders Run's arm and disarm with a tick already running.
	mu    sync.Mutex
	timer *time.Timer
	armed bool
	tick  time.Duration
	// due is when the next tick is.
	due time.Time
	// seen[r] is rank r's wait word at the last tick, since[r] the tick
	// that first saw it.
	seen  []uint64
	since []time.Time
}

// arm starts the monitor for a run, if the run has a limit to watch.
func (w *world) arm() {
	limit := w.timeout
	if limit <= 0 || (w.watchdog > 0 && w.watchdog < limit) {
		limit = w.watchdog
	}
	if limit <= 0 {
		return
	}
	mon := &w.mon
	mon.mu.Lock()
	defer mon.mu.Unlock()
	mon.armed = true
	// Rounded up, so that eight ticks are never short of the limit.
	mon.tick = max((limit+7)/8, time.Millisecond)
	mon.due = time.Now().Add(mon.tick)
	clear(mon.seen)
	if mon.timer == nil {
		mon.timer = time.AfterFunc(mon.tick, w.sample)
	} else {
		mon.timer.Reset(mon.tick)
	}
}

// disarm stops the monitor once the ranks have joined; a tick that is
// already running finishes first, or finds the monitor disarmed.
func (w *world) disarm() {
	mon := &w.mon
	mon.mu.Lock()
	defer mon.mu.Unlock()
	if mon.armed {
		mon.armed = false
		mon.timer.Stop()
	}
}

// sample is the monitor's tick. A rank it has seen in the same receive for
// Timeout is condemned — a bit in its wait word, set only if the rank is
// still in that receive — and kicked awake to raise the diagnosis itself,
// so that rank is the failure the run reports. When every unfinished rank
// has been seen in the same send or receive for Watchdog the run has
// quiesced without finishing, which is a true deadlock — only a rank can
// unblock a rank, and all of them wait — and the monitor fails the run with
// the per-rank blocked-on report, so Run returns a diagnosis instead of
// hanging until Timeout or forever.
func (w *world) sample() {
	mon := &w.mon
	mon.mu.Lock()
	defer mon.mu.Unlock()
	if !mon.armed || w.abort.Reason() != "" {
		return
	}
	now := time.Now()
	unfinished, quiesced := 0, w.watchdog > 0
	for r, p := range w.procs {
		if p.finished.Load() {
			continue
		}
		unfinished++
		word := p.word.Load()
		if word != mon.seen[r] {
			mon.seen[r], mon.since[r] = word, now
		}
		switch blocked := now.Sub(mon.since[r]); {
		case word == 0 || word&wordCondemned != 0:
			// Running, or on its way out with a timeout.
			quiesced = false
		case w.timeout > 0 && blocked >= w.timeout && receiving(word):
			// Unless the rank has just left that receive.
			if p.word.CompareAndSwap(word, word|wordCondemned) {
				mon.seen[r] = word | wordCondemned
				p.kick(word)
			}
			quiesced = false
		case blocked < w.watchdog:
			quiesced = false
		}
	}
	if !quiesced || unfinished == 0 {
		mon.due = mon.due.Add(mon.tick)
		mon.timer.Reset(time.Until(mon.due))
		return
	}
	// The durations count from the monitor's first sighting of each wait,
	// up to a tick after it began.
	var b strings.Builder
	fmt.Fprintf(&b, "backend: deadlock: every unfinished rank blocked for %v with no progress\n", w.watchdog)
	for r, p := range w.procs {
		if p.finished.Load() {
			fmt.Fprintf(&b, "  rank %d: finished\n", r)
			continue
		}
		word := mon.seen[r]
		fmt.Fprintf(&b, "  rank %d: blocked %s rank %d (tag %d) for %v\n",
			r, kindText[wordKind(word)].dir, wordPeer(word), p.tag.Load(), now.Sub(mon.since[r]).Round(time.Millisecond))
	}
	w.fail(b.String())
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
		p.word.Store(0)
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
