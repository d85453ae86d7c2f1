package algebra

import "fmt"

// This file constructs the derived operators that the optimization rules
// of §3 introduce. Each constructor takes the base operator(s) of the
// original collective operations and writes the rewritten program's
// operator once, as its formula: a straight-line list of passes, each one
// elementary operation dst ← x ⊕ y or a copy dst ← x, over named
// components of the operands, of the result and of at most one stack
// block. Every form the rest of the program uses is read off that list:
//
//   - the boxed reference (Fn, Unary, Ship, Lo, Hi, E, O, F) runs the
//     passes on the components through the operators' Apply and returns
//     the tuple of the result components;
//   - the flat kernel (FlatFn, FlatUnary, FlatShip/FlatLo/FlatHi,
//     FlatE/FlatO, FlatF), which exists when every pass has a slice kernel
//     (Op.slice), runs the same passes on blockWords words of every
//     component at a time, so that every pass after the first finds its
//     operands in the cache, and is what the arena-taking entries run
//     when the shapes allow (flat.go, "The representation");
//   - the operation counts of §4 (Cost, CostLo/CostHi, CostE/CostO) are
//     the passes' operator costs summed, so the virtual machine charges
//     exactly the computation the paper counts, and the widths (Arity,
//     ShipWidth) are the components the passes name.
//
// The two forms perform the same elementary operations in the same order,
// so they agree bit for bit (the TestFlat* tests). dst may be an operand,
// so a formula writes a component of the result only once the operand
// component it may be has no read left; a sub-term that would have to be
// written sooner (r1 ⊗ s2 of op_sr2, say) goes to the stack block, the
// others accumulate in the result itself.

// blockWords is how many words of each component a flat kernel takes
// through all of its passes before moving on: 2 KiB per component, so the
// widest formula (op_ss: eleven components) works inside a 32 KiB L1.
const blockWords = 256

// slot names one component a pass reads or writes: component i of the
// result (d0…d3), of the first operand (x0…x3) or of the second (y0…y2),
// or the stack block (tmp). slot>>2 says which, slot&3 the component.
// Components are numbered as the formula lists them: in op_sr2's, x0 is
// s1, x1 r1, y0 s2 and y1 r2.
type slot uint8

const (
	d0, d1, d2, d3 slot = 0, 1, 2, 3
	x0, x1, x2, x3 slot = 4, 5, 6, 7
	y0, y1, y2     slot = 8, 9, 10
	tmp            slot = 12
)

// pass is one step of a formula: dst ← x op y, or dst ← x when op is nil.
type pass struct {
	dst, x slot
	op     *Op
	y      slot
}

// cp is the pass dst ← x. It names x twice, so every pass names three
// slots.
func cp(dst, x slot) pass { return pass{dst: dst, x: x, y: x} }

// formula is one derived function, its passes and what construction reads
// off them.
type formula struct {
	passes []pass
	// w holds the widths of the result, of the two operands and of the
	// stack block: one more than the highest component a pass names, 0 for
	// one no pass names.
	w [4]int
	// cost is the elementary operations per element; kernels says that
	// every pass has a slice kernel, so that the flat form exists.
	cost    int
	kernels bool
}

func newFormula(passes ...pass) *formula {
	f := &formula{passes: passes, kernels: true}
	for _, p := range passes {
		if p.op != nil {
			f.cost += p.op.Cost
			f.kernels = f.kernels && p.op.Elem != nil
		}
		for _, s := range [...]slot{p.dst, p.x, p.y} {
			f.w[s>>2] = max(f.w[s>>2], int(s&3)+1)
		}
	}
	return f
}

// apply is the boxed form on operands x and y (y unread by a formula on
// one operand): the result tuple, or its one component when it has one.
func (f *formula) apply(x, y Value) Value {
	var c [tmp + 1]Value
	unpack(c[x0:x0+slot(f.w[1])], x)
	unpack(c[y0:y0+slot(f.w[2])], y)
	for _, p := range f.passes {
		if p.op == nil {
			c[p.dst] = c[p.x]
		} else {
			c[p.dst] = p.op.Apply(c[p.x], c[p.y])
		}
	}
	if f.w[0] == 1 {
		return c[d0]
	}
	out := make(Tuple, f.w[0])
	copy(out, c[:])
	return out
}

// unpack sets c to v's components: v itself when there is one, else the
// elements of the len(c)-tuple v must be.
func unpack(c []Value, v Value) {
	switch len(c) {
	case 0:
	case 1:
		c[0] = v
	default:
		t, ok := v.(Tuple)
		if !ok || len(t) != len(c) {
			panic(fmt.Sprintf("algebra: expected a %d-tuple, got %s", len(c), v))
		}
		copy(c, t)
	}
}

// run is the flat form, into dst, which may be x or y (nil for a formula
// on one operand). Go zeroes the stack block where it is declared, so only
// a formula that names one declares it.
func (f *formula) run(dst, x, y *FlatTuple) {
	var c [tmp + 1][]float64
	m := dst.M()
	split(c[d0:d0+slot(f.w[0])], dst, m)
	split(c[x0:x0+slot(f.w[1])], x, m)
	split(c[y0:y0+slot(f.w[2])], y, m)
	if f.w[3] > 0 {
		var b [blockWords]float64
		c[tmp] = b[:]
	}
	for left := m; left > 0; left -= blockWords {
		n := min(left, blockWords)
		for _, p := range f.passes {
			if p.op == nil {
				copy(c[p.dst][:n], c[p.x][:n])
			} else {
				p.op.slice(c[p.dst][:n], c[p.x][:n], c[p.y][:n])
			}
		}
		if left > blockWords {
			for i := range c[:tmp] {
				if c[i] != nil {
					c[i] = c[i][n:]
				}
			}
		}
	}
}

// split sets c to the first len(c) components of t, of m words each.
func split(c [][]float64, t *FlatTuple, m int) {
	for i := range c {
		c[i] = t.Data[i*m : (i+1)*m]
	}
}

// forms2 is the boxed and flat forms of a formula on two operands, the
// flat one nil when a pass has no slice kernel.
func (f *formula) forms2() (func(x, y Value) Value, func(dst, x, y *FlatTuple)) {
	if !f.kernels {
		return f.apply, nil
	}
	return f.apply, f.run
}

// forms1 is forms2 for a formula on one operand.
func (f *formula) forms1() (func(x Value) Value, func(dst, x *FlatTuple)) {
	boxed := func(x Value) Value { return f.apply(x, nil) }
	if !f.kernels {
		return boxed, nil
	}
	return boxed, func(dst, x *FlatTuple) { f.run(dst, x, nil) }
}

// derivedOp is the binary operator the formula fn defines.
func derivedOp(name string, fn *formula) *Op {
	op := &Op{Name: name, Cost: fn.cost, Arity: fn.w[0]}
	op.Fn, op.FlatFn = fn.forms2()
	return op
}

// OpSR2 builds op_sr2 of rules SR2-Reduction and SS2-Scan:
//
//	op_sr2((s1,r1),(s2,r2)) = (s1 ⊕ (r1 ⊗ s2), r1 ⊗ r2)
//
// It is associative whenever ⊗ and ⊕ are associative and ⊗ distributes
// over ⊕, so it can drive the ordinary reduce and scan collectives.
// Three elementary operations per element (Table 1: m·(2tw+3)).
func OpSR2(otimes, oplus *Op) *Op {
	return derivedOp(fmt.Sprintf("op_sr2(%s,%s)", otimes.Name, oplus.Name), newFormula(
		pass{tmp, x1, otimes, y0},
		pass{d0, x0, oplus, tmp},
		pass{d1, x1, otimes, y1},
	))
}

// OpNew builds the pointwise pair operator of the Figure 2 warm-up:
//
//	op_new((a1,b1),(a2,b2)) = (a1 op1 a2, b1 op2 b2)
func OpNew(op1, op2 *Op) *Op {
	return derivedOp(fmt.Sprintf("op_new(%s,%s)", op1.Name, op2.Name), newFormula(
		pass{d0, x0, op1, y0},
		pass{d1, x1, op2, y1},
	))
}

// OpSR builds op_sr of rule SR-Reduction, for commutative ⊕:
//
//	op_sr((t1,u1),(t2,u2)) = (t1 ⊕ t2 ⊕ u1, uu ⊕ uu)   with uu = u1 ⊕ u2
//	op_sr((),   (t2,u2))  = (t2, u2 ⊕ u2)
//
// The shared uu keeps the count at four elementary operations instead of
// five (Table 1: m·(2tw+4)). op_sr is not associative in general, so only
// the balanced collectives of §3.2 may use it.
func OpSR(oplus *Op) *Op {
	op := derivedOp(fmt.Sprintf("op_sr(%s)", oplus.Name), newFormula(
		pass{d0, x0, oplus, y0},
		pass{d0, d0, oplus, x1},
		pass{d1, x1, oplus, y1}, // uu
		pass{d1, d1, oplus, d1},
	))
	op.Unary, op.FlatUnary = newFormula(cp(d0, x0), pass{d1, x1, oplus, x1}).forms1()
	return op
}

// OpSRNoSharing is the ablation variant of OpSR that recomputes u1 ⊕ u2
// on both sides instead of sharing uu: five elementary operations. The
// result is identical; only the charged computation differs.
func OpSRNoSharing(oplus *Op) *Op {
	op := derivedOp(fmt.Sprintf("op_sr_nosharing(%s)", oplus.Name), newFormula(
		pass{d0, x0, oplus, y0},
		pass{d0, d0, oplus, x1},
		pass{tmp, x1, oplus, y1},
		pass{d1, x1, oplus, y1}, // again: the ablation
		pass{d1, tmp, oplus, d1},
	))
	sr := OpSR(oplus)
	op.Unary, op.FlatUnary = sr.Unary, sr.FlatUnary
	return op
}

// OpSegmented builds the segmented-scan operator over (flag, value)
// pairs — the device that makes nested data parallelism à la NESL (the
// paper's reference [4]) expressible with the ordinary scan collective.
// A set flag starts a new segment; combining restarts the accumulation at
// segment boundaries:
//
//	(f1,x1) ⊕seg (f2,x2) = (f1 ∨ f2,  x2           if f2
//	                                  x1 ⊕ x2      otherwise)
//
// The operator is associative whenever ⊕ is (flags use max as ∨ on 0/1
// scalars), so scan(op_seg) computes all per-segment prefixes in one
// collective.
func OpSegmented(oplus *Op) *Op {
	return &Op{
		Name:  fmt.Sprintf("op_seg(%s)", oplus.Name),
		Cost:  2,
		Arity: 2,
		Fn: func(a, b Value) Value {
			var c [4]Value // f1, x1, f2, x2
			unpack(c[:2], a)
			unpack(c[2:], b)
			flag := Max.Apply(c[0], c[2])
			if s, ok := c[2].(Scalar); ok && s != 0 {
				return Tuple{flag, c[3]}
			}
			return Tuple{flag, oplus.Apply(c[1], c[3])}
		},
	}
}

// BalancedScanOp is the node operator of the balanced scan (§3.3,
// Figure 5). Unlike an ordinary binary operator it produces a result for
// each of the two butterfly partners, and it ships only the components the
// partner actually reads (for op_ss that is (t,u,v) — 3m of the 4m words,
// which is where Table 1's 3tw comes from).
type BalancedScanOp struct {
	// Name identifies the operator in traces.
	Name string
	// CostLo and CostHi are the elementary operations per element
	// performed by the lower- and higher-ranked partner respectively.
	CostLo, CostHi int
	// Arity is the tuple width of the processor state.
	Arity int
	// ShipWidth is the number of tuple components Ship sends to the
	// partner (3 of op_ss's 4 — the source of Table 1's 3tw term).
	ShipWidth int
	// Ship projects the processor state to the message sent to the
	// partner.
	Ship func(own Value) Value
	// Lo computes the lower-ranked partner's new state from its own
	// state and the shipped part of the higher partner's state.
	Lo func(own, fromHi Value) Value
	// Hi computes the higher-ranked partner's new state from its own
	// state and the shipped part of the lower partner's state.
	Hi func(own, fromLo Value) Value
	// Solo is applied by processors without a partner in this phase
	// (number of processors not a power of two): they keep their first
	// component, the rest becomes undetermined. It takes a flat state as
	// the boxed tuple it represents.
	Solo func(own Value) Value
	// FlatShip/FlatLo/FlatHi, if non-nil, are the allocation-free flat
	// forms of Ship/Lo/Hi: FlatShip fills a width-ShipWidth dst from a
	// width-Arity state, FlatLo/FlatHi fill a width-Arity dst (which may
	// alias own) from the state and the partner's shipped part. There is
	// no flat Solo — the poisoned components need Undef, which only the
	// boxed form can hold.
	FlatShip func(dst, own *FlatTuple)
	FlatLo   func(dst, own, fromHi *FlatTuple)
	FlatHi   func(dst, own, fromLo *FlatTuple)
}

// OpSS builds op_ss of rule SS-Scan, for commutative ⊕ (§3.3):
//
//	op_ss((s1,t1,u1,v1),(s2,t2,u2,v2)) =
//	    ((s1, ttu, uuuu, vv), (s2 ⊕ t1 ⊕ v1, ttu, uuuu, uu ⊕ vv))
//	ttu = t1 ⊕ t2 ⊕ u1,  uu = u1 ⊕ u2,  uuuu = uu ⊕ uu,  vv = v1 ⊕ v2
//
// Sharing ttu, uu, uuuu and vv brings the operator from twelve to eight
// elementary operations (Table 1: m·(3tw+8); the higher-ranked side does
// the eight, the lower-ranked side five). Each side holds its own state
// in x and the (t, u, v) its partner shipped in y.
func OpSS(oplus *Op) *BalancedScanOp {
	ship := newFormula(cp(d0, x1), cp(d1, x2), cp(d2, x3))
	lo := newFormula(
		cp(d0, x0),
		pass{d1, x1, oplus, y0}, // ttu
		pass{d1, d1, oplus, x2},
		pass{d2, x2, oplus, y1}, // uu
		pass{d2, d2, oplus, d2}, // uuuu
		pass{d3, x3, oplus, y2}, // vv
	)
	hi := newFormula(
		pass{d0, x0, oplus, y0},
		pass{d0, d0, oplus, y2},
		pass{d1, y0, oplus, x1}, // ttu
		pass{d1, d1, oplus, y1},
		pass{d2, y1, oplus, x2}, // uu
		pass{d3, y2, oplus, x3}, // vv
		pass{d3, d2, oplus, d3},
		pass{d2, d2, oplus, d2}, // uuuu
	)
	op := &BalancedScanOp{
		Name:      fmt.Sprintf("op_ss(%s)", oplus.Name),
		CostLo:    lo.cost,
		CostHi:    hi.cost,
		Arity:     hi.w[0],
		ShipWidth: ship.w[0],
		Solo: func(own Value) Value {
			return Tuple{First(own), Undef{}, Undef{}, Undef{}}
		},
	}
	op.Ship, op.FlatShip = ship.forms1()
	op.Lo, op.FlatLo = lo.forms2()
	op.Hi, op.FlatHi = hi.forms2()
	return op
}

// Working is Op.Working for the balanced scan's node operator.
func (o *BalancedScanOp) Working(ar *Arena, x Value) (state, dst Value) {
	return ar.working(o.FlatLo != nil, o.Arity, x)
}

// ShipIn is Ship(own) in the representation algebra picks: a flat state's
// projection goes through FlatShip into dst when it fits, else into a flat
// tuple drawn from ar; a boxed one is the reference Ship.
func (o *BalancedScanOp) ShipIn(ar *Arena, dst, own Value) Value {
	if t, ok := own.(*FlatTuple); ok && o.FlatShip != nil && t.W == o.Arity {
		d := ar.flatDst(dst, o.ShipWidth, t.M())
		o.FlatShip(d, t)
		return d
	}
	return o.Ship(Boxed(own))
}

// NodeIn is the node operation of one butterfly phase, Hi(own, from) for
// the higher partner and Lo(own, from) for the lower, with Op.ApplyIn's
// contract: a flat state and a flat projection of the partner's go
// through FlatHi or FlatLo into dst (which may be own) or a flat tuple
// drawn from ar; anything else — a state Solo poisoned, say — through the
// boxed reference.
func (o *BalancedScanOp) NodeIn(ar *Arena, dst, own, from Value, higher bool) Value {
	boxed, flat := o.Lo, o.FlatLo
	if higher {
		boxed, flat = o.Hi, o.FlatHi
	}
	x, xf := own.(*FlatTuple)
	y, yf := from.(*FlatTuple)
	if xf && yf && flat != nil && x.W == o.Arity && y.W == o.ShipWidth && y.M() == x.M() {
		d := ar.flatDst(dst, o.Arity, x.M())
		flat(d, x, y)
		return d
	}
	return boxed(Boxed(own), Boxed(from))
}

// LaneWise is Op.LaneWise for the balanced scan's node operator.
func (o *BalancedScanOp) LaneWise() bool { return o.FlatLo != nil }

// RepeatOps is the (e, o) function pair of the comcast rules (§3.4): the
// repeat schema traverses the binary digits of the processor number,
// applying e for a 0 digit and o for a 1 digit. CostE and CostO record the
// elementary operations per element of each function; the per-phase worst
// case (CostO for every rule in the paper) is what Table 1 charges.
type RepeatOps struct {
	// Name identifies the pair in traces.
	Name string
	// CostE and CostO are elementary operations per element.
	CostE, CostO int
	// Arity is the tuple width of the working state.
	Arity int
	// Prepare duplicates the broadcast value into the working tuple
	// (pair for BS, triple for BSS2, quadruple for BSS).
	Prepare func(b Value) Value
	// E and O are the even- and odd-digit step functions.
	E, O func(Value) Value
	// FlatE and FlatO, if non-nil, are the flat in-place forms of E and
	// O; dst may alias v.
	FlatE, FlatO func(dst, v *FlatTuple)
}

// repeatOps is the e/o pair the formulas e and o define.
func repeatOps(name string, prepare func(Value) Value, e, o *formula) *RepeatOps {
	r := &RepeatOps{Name: name, CostE: e.cost, CostO: o.cost, Arity: o.w[0], Prepare: prepare}
	r.E, r.FlatE = e.forms1()
	r.O, r.FlatO = o.forms1()
	return r
}

// OpCompBS builds the e/o pair of rule BS-Comcast:
//
//	e(t,u) = (t, u ⊕ u)        o(t,u) = (t ⊕ u, u ⊕ u)
func OpCompBS(oplus *Op) *RepeatOps {
	return repeatOps(fmt.Sprintf("op_comp_bs(%s)", oplus.Name), Pair,
		newFormula(cp(d0, x0), pass{d1, x1, oplus, x1}),
		newFormula(pass{d0, x0, oplus, x1}, pass{d1, x1, oplus, x1}))
}

// OpCompBSS2 builds the e/o pair of rule BSS2-Comcast (⊗ distributes
// over ⊕):
//
//	e(s,t,u) = (s, t ⊕ (t ⊗ u), u ⊗ u)
//	o(s,t,u) = (t ⊕ (s ⊗ u), t ⊕ (t ⊗ u), u ⊗ u)
func OpCompBSS2(otimes, oplus *Op) *RepeatOps {
	return repeatOps(fmt.Sprintf("op_comp_bss2(%s,%s)", otimes.Name, oplus.Name), Triple,
		newFormula(
			cp(d0, x0),
			pass{tmp, x1, otimes, x2},
			pass{d1, x1, oplus, tmp},
			pass{d2, x2, otimes, x2},
		),
		newFormula(
			pass{tmp, x0, otimes, x2},
			pass{d0, x1, oplus, tmp},
			pass{tmp, x1, otimes, x2},
			pass{d1, x1, oplus, tmp},
			pass{d2, x2, otimes, x2},
		))
}

// OpCompBSS builds the e/o pair of rule BSS-Comcast (commutative ⊕):
//
//	e(s,t,u,v) = (s, t ⊕ t ⊕ u, uu ⊕ uu, v ⊕ v)            uu = u ⊕ u
//	o(s,t,u,v) = (s ⊕ t ⊕ v, t ⊕ t ⊕ u, uu ⊕ uu, uu ⊕ v ⊕ v)
func OpCompBSS(oplus *Op) *RepeatOps {
	return repeatOps(fmt.Sprintf("op_comp_bss(%s)", oplus.Name), Quadruple,
		newFormula(
			cp(d0, x0),
			pass{d1, x1, oplus, x1},
			pass{d1, d1, oplus, x2},
			pass{d2, x2, oplus, x2}, // uu
			pass{d2, d2, oplus, d2},
			pass{d3, x3, oplus, x3},
		),
		newFormula(
			pass{d0, x0, oplus, x1},
			pass{d0, d0, oplus, x3},
			pass{d1, x1, oplus, x1},
			pass{d1, d1, oplus, x2},
			pass{d2, x2, oplus, x2}, // uu
			pass{tmp, d2, oplus, x3},
			pass{d3, tmp, oplus, x3},
			pass{d2, d2, oplus, d2},
		))
}

// Repeat applies the logarithmic-time schema of §3.4 (equation (14)) to
// the processor number k: traverse k's binary digits from least to most
// significant, applying E for a 0 and O for a 1.
func (r *RepeatOps) Repeat(k int, b Value) Value {
	if k < 0 {
		panic("algebra: Repeat with negative processor number")
	}
	v := b
	for k != 0 {
		if k%2 == 0 {
			v = r.E(v)
		} else {
			v = r.O(v)
		}
		k /= 2
	}
	return v
}

// RepeatIn is Repeat(k, Prepare(b)) in the representation algebra picks,
// with Op.ApplyIn's contract: a Vec block is duplicated into dst, when it
// is a flat tuple of the working shape, or into one drawn from ar, and
// stepped there in place (StepIn); any other value runs the reference.
func (r *RepeatOps) RepeatIn(ar *Arena, dst Value, k int, b Value) Value {
	if k < 0 {
		panic("algebra: Repeat with negative processor number")
	}
	w := ar.prepare(dst, r.FlatE != nil, r.Arity, r.Prepare, b)
	for ; k != 0; k /= 2 {
		w = r.StepIn(ar, w, w, k%2 == 1)
	}
	return w
}

// StepIn is O(v) when odd, else E(v), with Op.ApplyIn's contract: a flat
// state goes through FlatO or FlatE into dst (which may be v) or a flat
// tuple drawn from ar, any other through the boxed reference.
func (r *RepeatOps) StepIn(ar *Arena, dst, v Value, odd bool) Value {
	boxed, flat := r.E, r.FlatE
	if odd {
		boxed, flat = r.O, r.FlatO
	}
	t, ok := v.(*FlatTuple)
	if !ok || flat == nil || t.W != r.Arity {
		return boxed(Boxed(v))
	}
	d := ar.flatDst(dst, t.W, t.M())
	flat(d, t)
	return d
}

// LaneWise is Op.LaneWise for the comcast step pair.
func (r *RepeatOps) LaneWise() bool { return r.FlatE != nil }

// RepeatCharge is the computation time charged for Repeat(k, b) on a
// working tuple whose components hold m words each: the digit-by-digit
// sum of CostE/CostO times m.
func (r *RepeatOps) RepeatCharge(k, m int) float64 {
	total := 0
	for k != 0 {
		if k%2 == 0 {
			total += r.CostE
		} else {
			total += r.CostO
		}
		k /= 2
	}
	return float64(total) * float64(m)
}

// IterOp is the unary operator iterated log p times by the Local rules
// (§3.5).
type IterOp struct {
	// Name identifies the operator in traces.
	Name string
	// Cost is elementary operations per element per application.
	Cost int
	// Arity is the tuple width of the working state.
	Arity int
	// Prepare builds the working state from the first processor's input
	// (identity for op_br, pair for op_bsr2/op_bsr).
	Prepare func(b Value) Value
	// F is one application.
	F func(Value) Value
	// FlatF, if non-nil, is the flat in-place form of F; dst may alias v.
	FlatF func(dst, v *FlatTuple)
}

// Charge is the computation time of one application of the operator to
// value a, analogous to Op.Charge.
func (o *IterOp) Charge(a Value) float64 {
	return float64(o.Cost) * float64(a.Words()/max(o.Arity, 1))
}

// IterateIn is n applications of F to Prepare(x) in the representation
// algebra picks, with Op.ApplyIn's contract: a Vec block is duplicated
// into dst, when it is a flat tuple of the working shape, or into one
// drawn from ar, and stepped there in place through FlatF; any other value
// runs the reference.
func (o *IterOp) IterateIn(ar *Arena, dst Value, n int, x Value) Value {
	w := ar.prepare(dst, o.FlatF != nil, o.Arity, o.Prepare, x)
	for range n {
		if t, ok := w.(*FlatTuple); ok {
			o.FlatF(t, t)
		} else {
			w = o.F(w)
		}
	}
	return w
}

// LaneWise is Op.LaneWise for the Local rules' iterated operator.
func (o *IterOp) LaneWise() bool { return o.FlatF != nil }

// iterOp is the iterated operator the formula f defines.
func iterOp(name string, prepare func(Value) Value, f *formula) *IterOp {
	op := &IterOp{Name: name, Cost: f.cost, Arity: f.w[0], Prepare: prepare}
	op.F, op.FlatF = f.forms1()
	return op
}

// OpBR builds op_br of rule BR-Local: op_br s = s ⊕ s. Iterated log p
// times it computes the p-fold reduction of the broadcast value.
func OpBR(oplus *Op) *IterOp {
	return iterOp(fmt.Sprintf("op_br(%s)", oplus.Name), func(b Value) Value { return b },
		newFormula(pass{d0, x0, oplus, x0}))
}

// OpBSR2 builds op_bsr2 of rule BSR2-Local (⊗ distributes over ⊕):
//
//	op_bsr2(s,t) = (s ⊕ (s ⊗ t), t ⊗ t)
func OpBSR2(otimes, oplus *Op) *IterOp {
	return iterOp(fmt.Sprintf("op_bsr2(%s,%s)", otimes.Name, oplus.Name), Pair, newFormula(
		pass{tmp, x0, otimes, x1},
		pass{d0, x0, oplus, tmp},
		pass{d1, x1, otimes, x1},
	))
}

// OpBSR builds op_bsr of rule BSR-Local (commutative ⊕):
//
//	op_bsr(t,u) = (t ⊕ t ⊕ u, uu ⊕ uu)    uu = u ⊕ u
func OpBSR(oplus *Op) *IterOp {
	return iterOp(fmt.Sprintf("op_bsr(%s)", oplus.Name), Pair, newFormula(
		pass{d0, x0, oplus, x0},
		pass{d0, d0, oplus, x1},
		pass{d1, x1, oplus, x1}, // uu
		pass{d1, d1, oplus, d1},
	))
}
