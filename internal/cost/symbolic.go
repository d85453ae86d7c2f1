package cost

import (
	"fmt"

	"repro/internal/term"
)

// This file derives Table 1 instead of storing it: a rule's two time
// columns are the Lines of its two sides per round and per word, and its
// "Improved if" column is where their difference is positive — the §4.2
// calculation done mechanically.

// SymbolicOfTerm is the line of t per round and per word, the form of a
// Table 1 time column: the stage walk's own counts on two processors
// (log p = 1) and one-word blocks. Such a form exists only when the counts
// are linear in log p and m — collectives, comcast, iter, the repeat
// schema and free maps are; a costed map, a gather or a scatter is not —
// which is checked by walking t a second time at log p = 3, m = 2.
// SymbolicOfTerm panics on a term that fails it.
func SymbolicOfTerm(t term.Term) Line {
	at := func(p Params) (sum Line) {
		Walk(term.Stages(t), p, PriceButterfly, func(st Step) { sum = sum.Add(st.Line) })
		return sum
	}
	unit, wide := Params{P: 2, M: 1}, Params{P: 8, M: 2}
	l := at(unit)
	if at(wide) != (Line{}).Add(l.over(wide)) {
		panic(fmt.Sprintf("cost: %s has no per-log-p, per-word form", t))
	}
	return l
}

// DeriveCondition computes the improvement condition of a rewrite from
// the per-round, per-word lines of its two sides, reproducing the §4.2
// derivation: simplify before − after and solve for the parameter regime
// where it is positive (ts, tw, m are all positive). It returns the
// condition in the paper's style and the predicate that evaluates it. The
// paper's three solved shapes are recognized; anything else is left as
// "diff > 0".
//
// The comparison is strict with one exception: when the right-hand side
// communicates nothing (no start-ups, no words — the Local rules) it is
// ≥, because at a tie the rewrite still takes the program off the
// network for the same estimated time. That is why the paper prints
// "tw + ts/m ≥ 1/3" for BSR-Local and ">" in every other row.
func DeriveCondition(before, after Line) (text string, holds func(Params) bool) {
	d := before.Add(after.Scale(-1))
	cmp, above := ">", func(x, y float64) bool { return x > y }
	if after.Rounds*after.Startups == 0 && after.Rounds*after.Words == 0 {
		cmp, above = ">=", func(x, y float64) bool { return x >= y }
	}
	constant := func(v bool) func(Params) bool { return func(Params) bool { return v } }
	switch {
	case d == Line{Rounds: 1}:
		return "never (equal cost)", constant(false)
	case d.Startups >= 0 && d.Words >= 0 && d.Ops >= 0:
		return "always", constant(true)
	case d.Startups <= 0 && d.Words <= 0 && d.Ops <= 0:
		return "never", constant(false)
	case d.Startups > 0 && d.Words <= 0 && d.Ops < 0:
		// a·ts > m(b·tw + c)  →  ts > m(tw·b/a + c/a).
		bw, cm := -d.Words/d.Startups, -d.Ops/d.Startups
		rhs := fmtCoeff(cm, "m", true)
		if bw != 0 {
			rhs = "m(" + fmtCoeff(bw, "tw", true) + "+" + trimNum(cm) + ")"
		}
		return "ts " + cmp + " " + rhs, func(p Params) bool { return above(p.Ts, p.m()*(bw*p.Tw+cm)) }
	case d.Startups > 0 && d.Words > 0 && d.Ops < 0:
		// a·ts + b·m·tw > c·m  →  tw + (a/b)·ts/m > c/b.
		r, k := d.Startups/d.Words, -d.Ops/d.Words
		lhs := "tw + ts/m"
		if r != 1 {
			lhs = "tw + " + trimNum(r) + "·ts/m"
		}
		return lhs + " " + cmp + " " + trimNum(k), func(p Params) bool { return above(p.Tw+r*p.Ts/p.m(), k) }
	}
	return d.String() + " " + cmp + " 0", func(p Params) bool { return above(d.over(p).At(p), 0) }
}

// Entry is one row of Table 1, derived by EntryOf.
type Entry struct {
	// Rule is the rule name as in §3.
	Rule string
	// Left and Right are the lines of the rule's two sides per round and
	// per word — what the table prints under "time before" and "after".
	Left, Right Line
	// Condition is the "Improved if" column, and Improves evaluates it.
	Condition string
	Improves  func(Params) bool
}

// EntryOf derives a rule's Table 1 row from a program its left-hand side
// matches and the program the rule rewrites it to. It is called where
// both are at hand (exper.Entry), so a rule whose right-hand side changes
// changes its row.
func EntryOf(rule string, lhs, rhs term.Term) Entry {
	before, after := SymbolicOfTerm(lhs), SymbolicOfTerm(rhs)
	text, holds := DeriveCondition(before, after)
	return Entry{Rule: rule, Left: before, Right: after, Condition: text, Improves: holds}
}

// Before and After are the estimated run times of the two sides at p
// (including the log p factor, unlike the table's headings).
func (e Entry) Before(p Params) float64 { return e.Left.over(p).At(p) }

// After is the estimated run time of the right-hand side.
func (e Entry) After(p Params) float64 { return e.Right.over(p).At(p) }
