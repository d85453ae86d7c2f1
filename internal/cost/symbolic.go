package cost

import (
	"fmt"
	"strings"

	"repro/internal/term"
)

// LinForm is a symbolic cost expression a·ts + b·m·tw + c·m (+ k), the
// shape of every per-log-p entry in Table 1. Symbolic forms let the
// library *derive* the table — both the time columns and the "Improved
// if" conditions — instead of merely storing it, reproducing the §4.2
// calculation mechanically.
type LinForm struct {
	// Ts is the coefficient of the start-up time.
	Ts float64
	// MTw is the coefficient of m·tw.
	MTw float64
	// M is the coefficient of the block size m.
	M float64
	// Const is the constant term (unused by the paper's entries but
	// kept for generality).
	Const float64
}

// Add returns l + r.
func (l LinForm) Add(r LinForm) LinForm {
	return LinForm{l.Ts + r.Ts, l.MTw + r.MTw, l.M + r.M, l.Const + r.Const}
}

// Sub returns l − r.
func (l LinForm) Sub(r LinForm) LinForm {
	return LinForm{l.Ts - r.Ts, l.MTw - r.MTw, l.M - r.M, l.Const - r.Const}
}

// Scale returns s·l.
func (l LinForm) Scale(s float64) LinForm {
	return LinForm{s * l.Ts, s * l.MTw, s * l.M, s * l.Const}
}

// IsZero reports whether every coefficient vanishes.
func (l LinForm) IsZero() bool {
	return l.Ts == 0 && l.MTw == 0 && l.M == 0 && l.Const == 0
}

// Eval substitutes concrete machine parameters (per log p).
func (l LinForm) Eval(p Params) float64 {
	return l.Ts*p.Ts + l.MTw*p.m()*p.Tw + l.M*p.m() + l.Const
}

// EvalTotal multiplies by the log p factor.
func (l LinForm) EvalTotal(p Params) float64 {
	return p.LogP() * l.Eval(p)
}

func fmtCoeff(c float64, unit string, first bool) string {
	sign := " + "
	switch {
	case c < 0 && first:
		sign = "-"
		c = -c
	case c < 0:
		sign = " - "
		c = -c
	case first:
		sign = ""
	}
	if c == 1 && unit != "" {
		return sign + unit
	}
	num := strings.TrimSuffix(strings.TrimSuffix(fmt.Sprintf("%.2f", c), "0"), "0")
	num = strings.TrimSuffix(num, ".")
	if unit == "" {
		return sign + num
	}
	return sign + num + unit
}

// String renders the form in the paper's style, e.g. "2ts + m(2tw + 3)".
func (l LinForm) String() string {
	var b strings.Builder
	if l.Ts != 0 {
		b.WriteString(fmtCoeff(l.Ts, "ts", true))
	}
	switch {
	case l.MTw != 0:
		// Group the m terms as m(a·tw + b), as the table does.
		inner := fmtCoeff(l.MTw, "tw", true)
		if l.M != 0 {
			inner += fmtCoeff(l.M, "", false)
		}
		if b.Len() > 0 {
			b.WriteString(" + ")
		}
		b.WriteString("m(" + inner + ")")
	case l.M != 0:
		b.WriteString(fmtCoeff(l.M, "m", b.Len() == 0))
	}
	if l.Const != 0 {
		b.WriteString(fmtCoeff(l.Const, "", b.Len() == 0))
	}
	if b.Len() == 0 {
		return "0"
	}
	return b.String()
}

// SymbolicOfTerm computes the symbolic per-log-p cost of a term under the
// butterfly model, mirroring OfTerm. Stages without the log p factor
// (plain maps) are scaled by 1/logp and therefore need a concrete p; the
// paper's table entries contain none, so SymbolicOfTerm supports exactly
// the stage types that appear in rules: collectives, comcast, iter, and
// the free pair/π₁ maps. It panics on a costed plain map.
func SymbolicOfTerm(t term.Term) LinForm {
	var total LinForm
	for _, stage := range term.Stages(t) {
		total = total.Add(symbolicOfStage(stage))
	}
	return total
}

func symbolicOfStage(t term.Term) LinForm {
	switch s := t.(type) {
	case term.Map:
		if s.F.Cost != 0 {
			panic("cost: symbolic form of a costed local stage is not per-log-p")
		}
		return LinForm{}
	case term.MapIdx:
		// The repeat schema of the comcast rules: worst case applies o
		// each of the log p digits.
		return LinForm{M: float64(repeatWorstCost(s))}
	case term.Bcast:
		return LinForm{Ts: 1, MTw: 1}
	case term.Gather, term.Scatter:
		// Not a per-log-p linear form (the bandwidth term is p·m/log p
		// per phase); the symbolic calculus covers only the stages the
		// paper's table needs.
		panic("cost: gather/scatter have no per-log-p symbolic form")
	case term.Scan:
		return LinForm{Ts: 1, MTw: float64(s.Op.Arity), M: 2 * float64(s.Op.Cost)}
	case term.ScanBal:
		return LinForm{Ts: 1, MTw: float64(s.Op.ShipWidth), M: float64(s.Op.CostHi)}
	case term.Reduce:
		return LinForm{Ts: 1, MTw: float64(s.Op.Arity), M: float64(s.Op.Cost)}
	case term.Comcast:
		if s.CostOptimal {
			return LinForm{Ts: 1, MTw: float64(s.Ops.Arity), M: float64(s.Ops.CostE + s.Ops.CostO)}
		}
		return LinForm{Ts: 1, MTw: 1, M: float64(s.Ops.CostO)}
	case term.Iter:
		return LinForm{M: float64(s.Op.Cost)}
	}
	panic(fmt.Sprintf("cost: no symbolic form for %T", t))
}

func repeatWorstCost(s term.MapIdx) int {
	// The worst processor applies the odd step every phase; its cost per
	// phase is recoverable from Charge at a power-of-two-minus-one index.
	if s.F.Charge == nil {
		return 0
	}
	// Charge(1, 1) is exactly one odd step on one word.
	return int(s.F.Charge(1, 1))
}

// Condition is a machine-parameter predicate derived symbolically.
type Condition struct {
	// Diff is before − after (per log p); the rule improves iff
	// Diff > 0 (or ≥ 0 when the difference can vanish identically).
	Diff LinForm
	// Text is the human-readable condition in the paper's style.
	Text string
	// Always and Never are set when the verdict is parameter-free.
	Always, Never bool
}

// Holds evaluates the condition at concrete parameters.
func (c Condition) Holds(p Params) bool {
	return c.Diff.Eval(p) > 0
}

// DeriveCondition computes the improvement condition of a rewrite from
// the symbolic costs of its two sides, reproducing the §4.2 derivation:
// simplify before − after and solve for the parameter regime where it is
// positive (ts, tw, m are all positive).
func DeriveCondition(before, after LinForm) Condition {
	d := before.Sub(after)
	c := Condition{Diff: d}
	pos := d.Ts >= 0 && d.MTw >= 0 && d.M >= 0 && d.Const >= 0
	neg := d.Ts <= 0 && d.MTw <= 0 && d.M <= 0 && d.Const <= 0
	switch {
	case d.IsZero():
		c.Never = true
		c.Text = "never (equal cost)"
	case pos:
		c.Always = true
		c.Text = "always"
	case neg:
		c.Never = true
		c.Text = "never"
	case d.Ts > 0 && d.MTw == 0 && d.M < 0 && d.Const == 0:
		// a·ts > b·m  →  ts > (b/a)·m.
		ratio := -d.M / d.Ts
		if ratio == 1 {
			c.Text = "ts > m"
		} else {
			c.Text = fmt.Sprintf("ts > %sm", trimNum(ratio))
		}
	case d.Ts > 0 && d.MTw < 0 && d.M < 0 && d.Const == 0:
		// a·ts > m(b·tw + c)  →  ts > m(tw·b/a + c/a).
		bw := -d.MTw / d.Ts
		cm := -d.M / d.Ts
		inner := ""
		if bw == 1 {
			inner = "tw"
		} else {
			inner = trimNum(bw) + "tw"
		}
		inner += fmt.Sprintf(" + %s", trimNum(cm))
		c.Text = fmt.Sprintf("ts > m(%s)", inner)
	case d.Ts > 0 && d.MTw > 0 && d.M < 0 && d.Const == 0:
		// a·ts + b·m·tw > c·m  →  tw + (a/b)·ts/m > c/b.
		a, bb, cc := d.Ts, d.MTw, -d.M
		lhs := "tw"
		if a != bb {
			lhs = fmt.Sprintf("tw + %s·ts/m", trimNum(a/bb))
		} else {
			lhs = "tw + ts/m"
		}
		c.Text = fmt.Sprintf("%s > %s", lhs, trimNum(cc/bb))
	default:
		c.Text = fmt.Sprintf("%s > 0", d)
	}
	return c
}

func trimNum(x float64) string {
	s := fmt.Sprintf("%.4f", x)
	s = strings.TrimRight(s, "0")
	s = strings.TrimSuffix(s, ".")
	// Render simple thirds the way the paper does.
	switch s {
	case "0.3333":
		return "1/3"
	case "0.5":
		return "1/2"
	}
	return s
}
