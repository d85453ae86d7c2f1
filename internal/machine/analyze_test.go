package machine

import (
	"strings"
	"testing"
)

func TestAnalyzeUsage(t *testing.T) {
	events := []Event{
		{Kind: EvCompute, Proc: 0, Start: 0, End: 10},
		{Kind: EvSend, Proc: 0, Start: 10, End: 30},
		{Kind: EvRecv, Proc: 1, Start: 5, End: 30},
		{Kind: EvCompute, Proc: 1, Start: 40, End: 45},
	}
	u := Analyze(events, 2)
	if u[0].Compute != 10 || u[0].Comm != 20 || u[0].Idle != 0 || u[0].Finish != 30 {
		t.Fatalf("proc 0 usage = %+v", u[0])
	}
	// Proc 1: comm 25, compute 5, finish 45 → idle 15.
	if u[1].Compute != 5 || u[1].Comm != 25 || u[1].Idle != 15 || u[1].Finish != 45 {
		t.Fatalf("proc 1 usage = %+v", u[1])
	}
}

func TestAnalyzeFromRealRun(t *testing.T) {
	m := New(2, Params{Ts: 10, Tw: 1})
	tr := NewTracer()
	m.SetTracer(tr)
	defer m.SetTracer(nil)
	m.Run(func(p *Proc) {
		p.Compute(5)
		p.Exchange(1-p.Rank(), words(2), 1)
	})
	u := Analyze(tr.Events(), 2)
	for i := range u {
		if u[i].Compute != 5 {
			t.Fatalf("proc %d compute = %g", i, u[i].Compute)
		}
		if u[i].Comm != 12 { // ts + 2·tw
			t.Fatalf("proc %d comm = %g", i, u[i].Comm)
		}
	}
}

func TestStageBreakdown(t *testing.T) {
	events := []Event{
		{Kind: EvMark, Proc: 0, Start: 0, End: 0, Label: "a"},
		{Kind: EvMark, Proc: 1, Start: 0, End: 0, Label: "a"},
		{Kind: EvCompute, Proc: 0, Start: 0, End: 10},
		{Kind: EvCompute, Proc: 1, Start: 0, End: 4},
		{Kind: EvMark, Proc: 0, Start: 10, End: 10, Label: "b"},
		{Kind: EvMark, Proc: 1, Start: 4, End: 4, Label: "b"},
		{Kind: EvCompute, Proc: 0, Start: 10, End: 12},
		{Kind: EvCompute, Proc: 1, Start: 4, End: 20},
	}
	stages := StageBreakdown(events, 2)
	if len(stages) != 2 {
		t.Fatalf("stages = %v", stages)
	}
	if stages[0].Label != "a" || stages[0].Time != 10 {
		t.Fatalf("stage a = %+v", stages[0])
	}
	// Stage b: proc 0 spans 10→12, proc 1 spans 4→20 → max 16.
	if stages[1].Label != "b" || stages[1].Time != 16 {
		t.Fatalf("stage b = %+v", stages[1])
	}
}

func TestStageBreakdownNoMarks(t *testing.T) {
	if got := StageBreakdown([]Event{{Kind: EvCompute, Proc: 0, Start: 0, End: 1}}, 1); got != nil {
		t.Fatalf("got %v", got)
	}
}

func TestStageBreakdownMismatchedMarksPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	StageBreakdown([]Event{
		{Kind: EvMark, Proc: 0, Start: 0, Label: "a"},
	}, 2)
}

func TestFormatProfile(t *testing.T) {
	u := []Usage{{Compute: 1, Comm: 2, Idle: 3, Finish: 6}}
	s := []StageCost{{Label: "bcast", Time: 4}, {Label: "scan(+)", Time: 2}}
	out := FormatProfile(u, s)
	for _, want := range []string{"P0", "stage breakdown", "bcast", "66.7%", "scan(+)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("profile missing %q:\n%s", want, out)
		}
	}
}
