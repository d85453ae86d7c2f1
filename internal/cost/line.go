package cost

import (
	"fmt"
	"strings"
)

// Line is a price before it is a number: Rounds communication rounds of
// Startups messages, Words words and Ops elementary operations each — the
// three things the §4.1 model charges for. A stage without round
// structure (a local map, a gather's tree) is one round.
//
// A Line counts one column at a time. The critical path — what one rank
// waits for, and what every estimate in this package prices — is one
// Line; the total work of all ranks together is another, and equations
// (15)–(17) return both (calib.Coef reads the second; no pricing policy
// does yet, and no other stage counts it).
//
// The type is four words so that the stage walk passes it in registers.
type Line struct {
	Rounds, Startups, Words, Ops float64
}

// local is a line of local work: no messages, ops operations.
func local(ops float64) Line { return Line{1, 0, 0, ops} }

// At prices the line on a machine: Rounds·(Startups·ts + Words·tw + Ops),
// the a·ts + b·m·tw + c·m of §4 with tw and ts in units of one operation.
// The association order is part of the contract — the rounds multiply the
// per-round sum, which is how the stage estimates, the ring and
// Rabenseifner lines, the sparse lines and Table 1 were each written out
// before they shared this method, so all of them are bit-for-bit what
// they were. Five expressions were written in another order (equations
// (16) and (17) and the pipeline as m·(tw+1), the two-part comcast as a
// sum of two products, Rabenseifner's non-power-of-two surcharge as a
// second sum); they agree exactly wherever the products are exact —
// integer parameters, tw = 0 — and to the last bit or two elsewhere
// (TestEstimatesMatchRecorded says which recorded rows that touches).
func (l Line) At(p Params) float64 {
	return l.Rounds * (l.Startups*p.Ts + l.Words*p.Tw + l.Ops)
}

// Add returns l + r as one round: the round counts are multiplied into
// the per-round counts first.
func (l Line) Add(r Line) Line {
	return Line{
		Rounds:   1,
		Startups: l.Rounds*l.Startups + r.Rounds*r.Startups,
		Words:    l.Rounds*l.Words + r.Rounds*r.Words,
		Ops:      l.Rounds*l.Ops + r.Rounds*r.Ops,
	}
}

// Scale returns the line repeated s times: s·l.
func (l Line) Scale(s float64) Line {
	l.Rounds *= s
	return l
}

// over reads l as Table 1 prints its time columns — counts per round and
// per word — and returns the line of p's log p rounds on m-word blocks.
func (l Line) over(p Params) Line {
	l.Rounds *= p.LogP()
	l.Words *= p.m()
	l.Ops *= p.m()
	return l
}

// String renders the line in the paper's style, reading the counts per
// word as Table 1 does: "2ts + m(2tw + 3)".
func (l Line) String() string {
	l = Line{}.Add(l)
	var b strings.Builder
	if l.Startups != 0 {
		b.WriteString(fmtCoeff(l.Startups, "ts", true))
	}
	switch {
	case l.Words != 0:
		// Group the m terms as m(a·tw + b), as the table does.
		inner := fmtCoeff(l.Words, "tw", true)
		if l.Ops != 0 {
			inner += fmtCoeff(l.Ops, "", false)
		}
		if b.Len() > 0 {
			b.WriteString(" + ")
		}
		b.WriteString("m(" + inner + ")")
	case l.Ops != 0:
		b.WriteString(fmtCoeff(l.Ops, "m", b.Len() == 0))
	}
	if b.Len() == 0 {
		return "0"
	}
	return b.String()
}

// fmtCoeff renders one signed term c·unit of a sum; a coefficient of one
// is left out before a unit.
func fmtCoeff(c float64, unit string, first bool) string {
	sign := " + "
	switch {
	case c < 0 && first:
		sign, c = "-", -c
	case c < 0:
		sign, c = " - ", -c
	case first:
		sign = ""
	}
	if c == 1 && unit != "" {
		return sign + unit
	}
	return sign + trimNum(c) + unit
}

// trimNum renders a coefficient without trailing zeros, and the simple
// fractions of Table 1's conditions the way the paper does.
func trimNum(x float64) string {
	s := strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.4f", x), "0"), ".")
	switch s {
	case "0.3333":
		return "1/3"
	case "0.5":
		return "1/2"
	}
	return s
}
