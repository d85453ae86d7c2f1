package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one interval of the traced run. The spans are recorded by the
// benchmark around its calls into the program (tracing inside the program
// is a later change), so a span is either timed here or laid out from
// times the program's public results report (backend.Result.Marks, the
// multi-process rep timings).
type span struct {
	name, layer string
	start, end  time.Duration // since the tracer was created
	parent      int           // index of the causing span, -1 for a root
	op          int           // the operation all spans of one sweep or request share
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time. A nil tracer records nothing, so the untraced run
// goes through the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

// begin opens a span now and returns its index for end and for children.
func (t *tracer) begin(name, layer string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, layer: layer, start: t.now(), parent: parent, op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].end = t.now()
	}
}

// add records a span whose times are already known.
func (t *tracer) add(name, layer string, start, end time.Duration, parent, op int) int {
	t.spans = append(t.spans, span{name: name, layer: layer, start: start, end: end, parent: parent, op: op})
	return len(t.spans) - 1
}

// selfRow is one line of the self-time table.
type selfRow struct {
	Layer string  `json:"layer"`
	Name  string  `json:"name"`
	Count int     `json:"count"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share"`
}

// selfTimes folds the spans into a table of self time per (layer, name):
// a span's duration minus the part its children cover. rootS is the summed
// duration of the root spans, which the rows add up to when every child
// lies inside its parent.
func (t *tracer) selfTimes() (rows []selfRow, rootS float64) {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		} else {
			rootS += (s.end - s.start).Seconds()
		}
	}
	byKey := map[[2]string]*selfRow{}
	for i, s := range t.spans {
		k := [2]string{s.layer, s.name}
		r := byKey[k]
		if r == nil {
			r = &selfRow{Layer: s.layer, Name: s.name}
			byKey[k] = r
		}
		r.Count++
		r.SelfS += self[i].Seconds()
	}
	for _, r := range byKey {
		if rootS > 0 {
			r.Share = r.SelfS / rootS
		}
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].SelfS != rows[j].SelfS {
			return rows[i].SelfS > rows[j].SelfS
		}
		return rows[i].Layer+rows[i].Name < rows[j].Layer+rows[j].Name
	})
	return rows, rootS
}

// layerShare is the share of the root time spent as self time of the
// layer's spans.
func layerShare(rows []selfRow, layer string) float64 {
	share := 0.0
	for _, r := range rows {
		if r.Layer == layer {
			share += r.Share
		}
	}
	return share
}

func formatSelfTimes(rows []selfRow, rootS, tracedS float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-44s %9s %11s %7s\n", "layer", "span", "count", "self ms", "share")
	sum := 0.0
	for _, r := range rows {
		sum += r.SelfS
		fmt.Fprintf(&b, "%-10s %-44s %9d %11.3f %6.1f%%\n", r.Layer, r.Name, r.Count, r.SelfS*1e3, r.Share*100)
	}
	fmt.Fprintf(&b, "rows sum to %.3f ms = %.1f%% of the %.3f ms traced (%.3f ms in root spans)\n",
		sum*1e3, 100*sum/tracedS, tracedS*1e3, rootS*1e3)
	return b.String()
}

// maxTraceEvents bounds the trace file: the table above is computed over
// every span, the file keeps the first operations only so it stays
// loadable in a trace viewer.
const maxTraceEvents = 40000

// writeChrome writes the spans in the Chrome trace-event format
// (chrome://tracing, Perfetto).
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	n := len(t.spans)
	if n > maxTraceEvents {
		n = maxTraceEvents
	}
	events := make([]event, n)
	for i, s := range t.spans[:n] {
		events[i] = event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start.Nanoseconds()) / 1e3, Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1, Args: map[string]int{"op": s.op, "parent": s.parent, "id": i},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
