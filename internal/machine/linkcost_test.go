package machine

import "testing"

func TestLinkCostOverridesParams(t *testing.T) {
	m := New(3, Params{Ts: 100, Tw: 1})
	m.LinkCost = func(src, dst int) Params {
		if src == 0 && dst == 1 || src == 1 && dst == 0 {
			return Params{Ts: 1, Tw: 1}
		}
		return Params{Ts: 1000, Tw: 2}
	}
	res := m.Run(func(p *Proc) {
		switch p.Rank() {
		case 0:
			p.Send(1, words(10), 1) // cheap: 1 + 10 = 11
			p.Send(2, words(10), 2) // expensive: 1000 + 20 = 1020
		case 1:
			p.Recv(0, 1)
		case 2:
			p.Recv(0, 2)
		}
	})
	if res.Clocks[1] != 11 {
		t.Fatalf("cheap-link receiver clock = %g, want 11", res.Clocks[1])
	}
	// Expensive send departs at 11 (after the cheap one).
	if res.Clocks[2] != 11+1020 {
		t.Fatalf("expensive-link receiver clock = %g, want 1031", res.Clocks[2])
	}
}

func TestLinkCostAppliesToExchange(t *testing.T) {
	m := New(2, Params{Ts: 100, Tw: 1})
	m.LinkCost = func(src, dst int) Params { return Params{Ts: 7, Tw: 3} }
	res := m.Run(func(p *Proc) {
		p.Exchange(1-p.Rank(), words(4), 1)
	})
	// 7 + 4·3 = 19 on both ends.
	if res.Clocks[0] != 19 || res.Clocks[1] != 19 {
		t.Fatalf("clocks = %v, want [19 19]", res.Clocks)
	}
}

func TestNilLinkCostUsesParams(t *testing.T) {
	m := New(2, Params{Ts: 5, Tw: 1})
	res := m.Run(func(p *Proc) {
		if p.Rank() == 0 {
			p.Send(1, words(5), 1)
		} else {
			p.Recv(0, 1)
		}
	})
	if res.Clocks[1] != 10 {
		t.Fatalf("clock = %g, want 10", res.Clocks[1])
	}
}
