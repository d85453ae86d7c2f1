// Package machine provides the virtual parallel machine on which the
// collective operations run: a fully connected system of p processors in
// which any pair can exchange blocks of m words in time ts + m·tw, and one
// computation operation costs one time unit — exactly the machine and
// implementation model of §4.1 of Gorlatch, Wedler and Lengauer (IPPS'99).
//
// The machine substitutes for the paper's MPI/Parsytec testbed: Go has no
// mature MPI bindings, so processors are goroutines, point-to-point
// messages are channel rendezvous, and *time* is virtual — every processor
// carries a clock advanced by the cost model, so measured run times are
// deterministic and directly comparable with the paper's estimates, while
// the data flow is executed for real (values actually travel between
// goroutines, so correctness is exercised, not assumed).
//
// A processor is the shared rank of package rank — the message discipline
// every backend runs — over this package's link (type link), which holds
// the model's clock rules and nothing else.
package machine

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/rank"
)

// Params are the machine parameters of the cost model: Ts is the start-up
// time of a transfer, Tw the per-word transfer time, both in units of one
// computation operation.
type Params struct {
	// Ts is the message start-up time.
	Ts float64
	// Tw is the per-word transfer time.
	Tw float64
}

// DefaultParams resemble the relation between start-up and per-word cost
// on the paper's Parsytec network: start-up dominates by a few orders of
// magnitude.
func DefaultParams() Params { return Params{Ts: 1000, Tw: 1} }

// Machine is a virtual fully connected parallel machine with P processors.
// Create one with New, then call Run to execute an SPMD program.
type Machine struct {
	// P is the number of processors.
	P int
	// Params are the communication cost parameters.
	Params Params
	// Timeout bounds how long a processor may block in Recv before the
	// run is aborted with a deadlock diagnosis. Zero means no bound.
	Timeout time.Duration
	// MailboxCap overrides the buffer depth per directed processor pair.
	// Zero means the default (4), which is enough for every collective in
	// package coll. A fault-injecting link wants more headroom: one of its
	// messages can take two slots, as a duplicate or as a doomed copy and
	// its good copy.
	MailboxCap int

	tracer *Tracer
	// procs is the processor table of the run in progress. A Machine
	// runs one program at a time.
	procs []*Proc
}

// New creates a machine with p processors and the given cost parameters.
func New(p int, params Params) *Machine {
	if p < 1 {
		panic(fmt.Sprintf("machine: need at least 1 processor, got %d", p))
	}
	return &Machine{P: p, Params: params, Timeout: 30 * time.Second}
}

// SetTracer installs an event tracer; pass nil to disable tracing.
func (m *Machine) SetTracer(t *Tracer) { m.tracer = t }

// packet is one in-flight message on a virtual link.
type packet struct {
	rank.Packet
	words int
	// depart is the sender's clock when the transfer began.
	depart float64
}

// Proc is one virtual processor, handed to the SPMD body by Run: the
// shared rank core (package rank) — so it is a coll.Comm, the analogue of
// MPI_COMM_WORLD — over the model-clock link below. Its methods must only
// be called from the goroutine running that body.
type Proc struct {
	rank.Core
	m     *Machine
	clock float64
	// in[src] carries messages from processor src to this processor.
	in    []chan packet
	abort *rank.Abort
	timer rank.Timer
}

// Clock is the processor's current virtual time.
func (p *Proc) Clock() float64 { return p.clock }

// Compute charges n time units of local computation (one unit per
// elementary operation, per §4.1).
func (p *Proc) Compute(n float64) {
	p.Core.Compute(n)
	start := p.clock
	p.clock += n
	p.m.trace(Event{Kind: EvCompute, Proc: p.Rank(), Peer: -1, Start: start, End: p.clock})
}

// link is how a virtual packet moves — the §4.1 clock rules, which are the
// timing reference for every other backend: a transfer of w words occupies
// the sender for ts + w·tw from its own clock and the receiver until
// max(receiver clock, sender clock at departure) + ts + w·tw. Ownership
// never transfers (every send is a borrow). A processor that fails cancels
// the ones blocked on it; one blocked longer than Timeout diagnoses a
// deadlock.
type link Proc

// cost is the transfer time of w words over any link.
func (l *link) cost(w int) float64 { return l.m.Params.Ts + float64(w)*l.m.Params.Tw }

// stamp is pkt departing now, as a borrow.
func (l *link) stamp(pkt rank.Packet) packet {
	pkt.Owned = false
	return packet{Packet: pkt, words: pkt.Value.Words(), depart: l.clock}
}

// sent occupies the sender for out's transfer.
func (l *link) sent(dst int, out packet) {
	l.clock += l.cost(out.words)
	l.m.trace(Event{Kind: EvSend, Proc: l.Rank(), Peer: dst, Words: out.words, Start: out.depart, End: l.clock, Tag: out.Tag})
}

// enqueue blocks while dst's mailbox is full, cancellably.
func (l *link) enqueue(dst int, out packet) {
	select {
	case l.m.procs[dst].in[l.Rank()] <- out:
	case <-l.abort.Done():
		panic(rank.ErrAborted)
	}
}

// Put ships pkt to dst.
func (l *link) Put(dst int, pkt rank.Packet) {
	out := l.stamp(pkt)
	l.sent(dst, out)
	l.enqueue(dst, out)
}

// Take receives the next packet from src.
func (l *link) Take(src, want int) rank.Packet {
	return l.arrive(src, l.await(src, want, "waiting for a message from"), EvRecv)
}

// Swap is the simultaneous bidirectional exchange of §4.1: the two
// transfers overlap, so both clocks advance to
// max(clock_a, clock_b) + ts + max(words)·tw — which is what makes a
// butterfly phase cost ts + m·tw rather than twice that.
func (l *link) Swap(peer int, pkt rank.Packet) rank.Packet {
	out := l.stamp(pkt)
	l.enqueue(peer, out)
	in := l.await(peer, pkt.Tag, "in exchange with")
	in.words = max(in.words, out.words)
	return l.arrive(peer, in, EvExchange)
}

// await blocks for the next packet from src, up to Timeout.
func (l *link) await(src, want int, doing string) packet {
	select {
	case in := <-l.in[src]:
		return in
	default:
	}
	in, ok := rank.Await(l.in[src], l.abort, &l.timer, l.m.Timeout)
	if !ok {
		panic(fmt.Sprintf("machine: proc %d deadlocked %s proc %d (tag %d): nothing arrived within %v",
			l.Rank(), doing, src, want, l.m.Timeout))
	}
	return in
}

// arrive occupies the receiver for in's transfer, from the later of its own
// clock and the sender's departure.
func (l *link) arrive(peer int, in packet, kind EventKind) rank.Packet {
	start := max(l.clock, in.depart)
	l.clock = start + l.cost(in.words)
	l.m.trace(Event{Kind: kind, Proc: l.Rank(), Peer: peer, Words: in.words, Start: start, End: l.clock, Tag: in.Tag})
	return in.Packet
}

// Result summarises one run of an SPMD program.
type Result struct {
	// Makespan is the maximum finishing clock over all processors —
	// the run time of the program under the cost model.
	Makespan float64
	// Clocks are the per-processor finishing clocks.
	Clocks []float64
	// Messages is the total number of point-to-point transfers.
	Messages int
	// Words is the total number of words moved over the links — the
	// run's communication volume.
	Words int
	// Ops is the total computation charged across all processors — the
	// run's work. The paper's "cost-optimal" claims (§3.4) are claims
	// about Ops, not Makespan.
	Ops float64
	// Wall is the real (host) execution time of the run.
	Wall time.Duration
}

// Run executes body as an SPMD program: one goroutine per processor, all
// starting at clock 0. It returns when every processor's body has
// finished. The first panic in a processor's body cancels the processors
// blocked in a send or receive, aborts the run and is re-raised on the
// caller's goroutine with the processor identified.
func (m *Machine) Run(body func(p *Proc)) Result {
	m.procs = make([]*Proc, m.P)
	abort := rank.NewAbort()
	for r := 0; r < m.P; r++ {
		in := make([]chan packet, m.P)
		cap := m.MailboxCap
		if cap <= 0 {
			// Capacity 4 is plenty: the collectives never have more
			// than one outstanding message per directed pair.
			cap = 4
		}
		for s := 0; s < m.P; s++ {
			if s != r {
				in[s] = make(chan packet, cap)
			}
		}
		p := &Proc{m: m, in: in, abort: abort}
		p.Init(r, m.P, (*link)(p), nil, p.mark)
		m.procs[r] = p
	}
	start := time.Now()
	var wg sync.WaitGroup
	for r := 0; r < m.P; r++ {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil && e != rank.ErrAborted {
					abort.Fail(fmt.Sprintf("machine: processor %d failed: %v", p.Rank(), e))
				}
			}()
			body(p)
		}(m.procs[r])
	}
	wg.Wait()
	wall := time.Since(start)
	if failure := abort.Reason(); failure != "" {
		panic(failure)
	}
	res := Result{Clocks: make([]float64, m.P), Wall: wall}
	for r, p := range m.procs {
		n := p.Counters()
		res.Clocks[r] = p.clock
		res.Messages += n.Sent
		res.Words += n.Words
		res.Ops += n.Ops
		if p.clock > res.Makespan {
			res.Makespan = p.clock
		}
	}
	m.procs = nil
	return res
}

func (m *Machine) trace(e Event) {
	if m.tracer != nil {
		m.tracer.record(e)
	}
}
