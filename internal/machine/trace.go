package machine

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// EventKind classifies trace events.
type EventKind int

// The event kinds recorded by a Tracer.
const (
	// EvCompute is a local computation interval.
	EvCompute EventKind = iota
	// EvSend is the sending half of a one-directional transfer.
	EvSend
	// EvRecv is the receiving half of a one-directional transfer.
	EvRecv
	// EvExchange is a simultaneous bidirectional exchange.
	EvExchange
	// EvMark is a user annotation (phase boundaries etc.).
	EvMark
)

func (k EventKind) String() string {
	switch k {
	case EvCompute:
		return "compute"
	case EvSend:
		return "send"
	case EvRecv:
		return "recv"
	case EvExchange:
		return "exchange"
	case EvMark:
		return "mark"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one record in an execution trace.
type Event struct {
	Kind  EventKind
	Proc  int
	Peer  int // -1 when not a communication
	Words int
	Start float64
	End   float64
	Tag   int
	Label string // for EvMark
}

// Tracer collects events from a run. It is safe for concurrent use by the
// processor goroutines.
type Tracer struct {
	mu     sync.Mutex
	events []Event
}

// NewTracer returns an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

func (t *Tracer) record(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a copy of the recorded events sorted by start time, then
// by processor.
func (t *Tracer) Events() []Event {
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Proc < out[j].Proc
	})
	return out
}

// Reset discards all recorded events.
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
}

// mark is the core's mark hook: a user annotation on the processor's
// timeline, e.g. the boundary between program stages.
func (p *Proc) mark(label string) {
	p.m.trace(Event{Kind: EvMark, Proc: p.Rank(), Peer: -1, Start: p.clock, End: p.clock, Label: label})
}

// Timeline renders the trace as a per-processor text timeline, a textual
// analogue of the run-time pictures in Figures 1 and 3 of the paper. width
// is the number of character columns the time axis is scaled to.
func Timeline(events []Event, procs int, width int) string {
	if width < 10 {
		width = 10
	}
	var tmax float64
	for _, e := range events {
		if e.End > tmax {
			tmax = e.End
		}
	}
	if tmax == 0 {
		tmax = 1
	}
	col := func(t float64) int {
		c := int(t / tmax * float64(width-1))
		if c >= width {
			c = width - 1
		}
		return c
	}
	rows := make([][]byte, procs)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	fill := func(proc int, a, b float64, ch byte) {
		if proc < 0 || proc >= procs {
			return
		}
		lo, hi := col(a), col(b)
		for c := lo; c <= hi && c < width; c++ {
			rows[proc][c] = ch
		}
	}
	for _, e := range events {
		switch e.Kind {
		case EvCompute:
			fill(e.Proc, e.Start, e.End, '#')
		case EvSend:
			fill(e.Proc, e.Start, e.End, '>')
		case EvRecv:
			fill(e.Proc, e.Start, e.End, '<')
		case EvExchange:
			fill(e.Proc, e.Start, e.End, 'x')
		case EvMark:
			fill(e.Proc, e.Start, e.Start, '|')
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "time 0 %s %.0f\n", strings.Repeat(" ", width-8), tmax)
	for i, r := range rows {
		fmt.Fprintf(&b, "P%-3d %s\n", i, string(r))
	}
	b.WriteString("legend: # compute  > send  < recv  x exchange  | mark\n")
	return b.String()
}
