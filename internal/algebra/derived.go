package algebra

import "fmt"

// This file constructs the derived operators that the optimization rules
// of §3 introduce. Each constructor takes the base operator(s) of the
// original collective operations and returns the tuple operator of the
// rewritten program, with the operation counts of §4 recorded in Cost so
// the virtual machine charges exactly the computation the paper counts.
//
// The flat kernels (FlatFn, FlatUnary, FlatLo/FlatHi, FlatE/FlatO, FlatF)
// are what the arena-taking entries run when the shapes allow (flat.go,
// "The representation"): compositions of the base operators' slice
// kernels (Op.slice), one pass per elementary operation of the reference
// formula and in its order, taken blockWords at a time so that every pass
// after the first finds its operands in the cache. dst may be an operand,
// so a pass writes a component of dst only once the operand component it
// may be has no read left; a sub-term that would have to be written sooner
// (r1 ⊗ s2 of op_sr2, say) goes to a block on the stack, the others
// accumulate in dst itself.

// blockWords is how many words of each component a flat kernel takes
// through all of its passes before moving on: 2 KiB per component, so the
// widest kernel (op_ss: eleven components) works inside a 32 KiB L1.
const blockWords = 256

// srBlock is the core op_sr shares with op_ss's lower side, op_comp_bss's
// e and op_bsr, on one block: (dt, du) = (t1 ⊕ t2 ⊕ u1, uu ⊕ uu) with
// uu = u1 ⊕ u2. dt may be t1 or t2, du may be u1 or u2.
func srBlock(oplus *Op, dt, du, t1, u1, t2, u2 []float64) {
	oplus.slice(dt, t1, t2)
	oplus.slice(dt, dt, u1)
	oplus.slice(du, u1, u2) // uu
	oplus.slice(du, du, du)
}

func tup2(v Value) (a, b Value) {
	t, ok := v.(Tuple)
	if !ok || len(t) != 2 {
		panic(fmt.Sprintf("algebra: expected pair, got %s", v))
	}
	return t[0], t[1]
}

func tup3(v Value) (a, b, c Value) {
	t, ok := v.(Tuple)
	if !ok || len(t) != 3 {
		panic(fmt.Sprintf("algebra: expected triple, got %s", v))
	}
	return t[0], t[1], t[2]
}

func tup4(v Value) (a, b, c, d Value) {
	t, ok := v.(Tuple)
	if !ok || len(t) != 4 {
		panic(fmt.Sprintf("algebra: expected quadruple, got %s", v))
	}
	return t[0], t[1], t[2], t[3]
}

// OpSR2 builds op_sr2 of rules SR2-Reduction and SS2-Scan:
//
//	op_sr2((s1,r1),(s2,r2)) = (s1 ⊕ (r1 ⊗ s2), r1 ⊗ r2)
//
// It is associative whenever ⊗ and ⊕ are associative and ⊗ distributes
// over ⊕, so it can drive the ordinary reduce and scan collectives.
// Three elementary operations per element (Table 1: m·(2tw+3)).
func OpSR2(otimes, oplus *Op) *Op {
	op := &Op{
		Name:  fmt.Sprintf("op_sr2(%s,%s)", otimes.Name, oplus.Name),
		Cost:  3,
		Arity: 2,
		Fn: func(a, b Value) Value {
			s1, r1 := tup2(a)
			s2, r2 := tup2(b)
			return Tuple{
				oplus.Apply(s1, otimes.Apply(r1, s2)),
				otimes.Apply(r1, r2),
			}
		},
	}
	if oplus.Elem != nil && otimes.Elem != nil {
		op.FlatFn = func(dst, a, b *FlatTuple) {
			m := a.M()
			s1, r1 := a.Data[:m], a.Data[m:]
			s2, r2 := b.Data[:m], b.Data[m:]
			ds, dr := dst.Data[:m], dst.Data[m:]
			var rs [blockWords]float64
			for lo := 0; lo < m; lo += blockWords {
				hi := min(lo+blockWords, m)
				rs := rs[:hi-lo]
				otimes.slice(rs, r1[lo:hi], s2[lo:hi])
				oplus.slice(ds[lo:hi], s1[lo:hi], rs)
				otimes.slice(dr[lo:hi], r1[lo:hi], r2[lo:hi])
			}
		}
	}
	return op
}

// OpNew builds the pointwise pair operator of the Figure 2 warm-up:
//
//	op_new((a1,b1),(a2,b2)) = (a1 op1 a2, b1 op2 b2)
func OpNew(op1, op2 *Op) *Op {
	op := &Op{
		Name:  fmt.Sprintf("op_new(%s,%s)", op1.Name, op2.Name),
		Cost:  op1.Cost + op2.Cost,
		Arity: 2,
		Fn: func(a, b Value) Value {
			a1, b1 := tup2(a)
			a2, b2 := tup2(b)
			return Tuple{op1.Apply(a1, a2), op2.Apply(b1, b2)}
		},
	}
	if op1.Elem != nil && op2.Elem != nil {
		op.FlatFn = func(dst, a, b *FlatTuple) {
			m := a.M()
			op1.slice(dst.Data[:m], a.Data[:m], b.Data[:m])
			op2.slice(dst.Data[m:], a.Data[m:], b.Data[m:])
		}
	}
	return op
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
	op := &Op{
		Name:  fmt.Sprintf("op_sr(%s)", oplus.Name),
		Cost:  4,
		Arity: 2,
		Fn: func(a, b Value) Value {
			t1, u1 := tup2(a)
			t2, u2 := tup2(b)
			uu := oplus.Apply(u1, u2)
			return Tuple{
				oplus.Apply(oplus.Apply(t1, t2), u1),
				oplus.Apply(uu, uu),
			}
		},
		Unary: func(b Value) Value {
			t2, u2 := tup2(b)
			return Tuple{t2, oplus.Apply(u2, u2)}
		},
	}
	if oplus.Elem != nil {
		op.FlatFn = func(dst, a, b *FlatTuple) {
			m := a.M()
			t1, u1 := a.Data[:m], a.Data[m:]
			t2, u2 := b.Data[:m], b.Data[m:]
			dt, du := dst.Data[:m], dst.Data[m:]
			for lo := 0; lo < m; lo += blockWords {
				hi := min(lo+blockWords, m)
				srBlock(oplus, dt[lo:hi], du[lo:hi], t1[lo:hi], u1[lo:hi], t2[lo:hi], u2[lo:hi])
			}
		}
		op.FlatUnary = func(dst, b *FlatTuple) {
			m := b.M()
			copy(dst.Data[:m], b.Data[:m])
			oplus.slice(dst.Data[m:], b.Data[m:], b.Data[m:])
		}
	}
	return op
}

// OpSRNoSharing is the ablation variant of OpSR that recomputes u1 ⊕ u2
// on both sides instead of sharing uu: five elementary operations. The
// result is identical; only the charged computation differs.
func OpSRNoSharing(oplus *Op) *Op {
	op := OpSR(oplus)
	naive := &Op{
		Name:  fmt.Sprintf("op_sr_nosharing(%s)", oplus.Name),
		Cost:  5,
		Arity: 2,
		Fn: func(a, b Value) Value {
			t1, u1 := tup2(a)
			t2, u2 := tup2(b)
			return Tuple{
				oplus.Apply(oplus.Apply(t1, t2), u1),
				oplus.Apply(oplus.Apply(u1, u2), oplus.Apply(u1, u2)),
			}
		},
		Unary:     op.Unary,
		FlatUnary: op.FlatUnary,
	}
	if oplus.Elem != nil {
		naive.FlatFn = func(dst, a, b *FlatTuple) {
			m := a.M()
			t1, u1 := a.Data[:m], a.Data[m:]
			t2, u2 := b.Data[:m], b.Data[m:]
			dt, du := dst.Data[:m], dst.Data[m:]
			var uu [blockWords]float64
			for lo := 0; lo < m; lo += blockWords {
				hi := min(lo+blockWords, m)
				dt, du, uu := dt[lo:hi], du[lo:hi], uu[:hi-lo]
				oplus.slice(dt, t1[lo:hi], t2[lo:hi])
				oplus.slice(dt, dt, u1[lo:hi])
				oplus.slice(uu, u1[lo:hi], u2[lo:hi])
				oplus.slice(du, u1[lo:hi], u2[lo:hi]) // again: the ablation
				oplus.slice(du, uu, du)
			}
		}
	}
	return naive
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
			f1, x1 := tup2(a)
			f2, x2 := tup2(b)
			flag := Max.Apply(f1, f2)
			if s, ok := f2.(Scalar); ok && s != 0 {
				return Tuple{flag, x2}
			}
			return Tuple{flag, oplus.Apply(x1, x2)}
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
	// component, the rest becomes undetermined.
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
// the eight, the lower-ranked side five).
func OpSS(oplus *Op) *BalancedScanOp {
	op := &BalancedScanOp{
		Name:      fmt.Sprintf("op_ss(%s)", oplus.Name),
		CostLo:    5,
		CostHi:    8,
		Arity:     4,
		ShipWidth: 3,
		Ship: func(own Value) Value {
			_, t, u, v := tup4(own)
			return Tuple{t, u, v}
		},
		Lo: func(own, fromHi Value) Value {
			s1, t1, u1, v1 := tup4(own)
			t2, u2, v2 := tup3(fromHi)
			uu := oplus.Apply(u1, u2)
			return Tuple{
				s1,
				oplus.Apply(oplus.Apply(t1, t2), u1),
				oplus.Apply(uu, uu),
				oplus.Apply(v1, v2),
			}
		},
		Hi: func(own, fromLo Value) Value {
			s2, t2, u2, v2 := tup4(own)
			t1, u1, v1 := tup3(fromLo)
			uu := oplus.Apply(u1, u2)
			vv := oplus.Apply(v1, v2)
			return Tuple{
				oplus.Apply(oplus.Apply(s2, t1), v1),
				oplus.Apply(oplus.Apply(t1, t2), u1),
				oplus.Apply(uu, uu),
				oplus.Apply(uu, vv),
			}
		},
		Solo: func(own Value) Value {
			s, _, _, _ := tup4(own)
			return Tuple{s, Undef{}, Undef{}, Undef{}}
		},
	}
	if oplus.Elem != nil {
		op.FlatShip = func(dst, own *FlatTuple) {
			m := own.M()
			copy(dst.Data, own.Data[m:]) // (t, u, v)
		}
		op.FlatLo = func(dst, own, fromHi *FlatTuple) {
			m := own.M()
			s1, t1, u1, v1 := own.Data[:m], own.Data[m:2*m], own.Data[2*m:3*m], own.Data[3*m:]
			t2, u2, v2 := fromHi.Data[:m], fromHi.Data[m:2*m], fromHi.Data[2*m:]
			ds, dt, du, dv := dst.Data[:m], dst.Data[m:2*m], dst.Data[2*m:3*m], dst.Data[3*m:]
			copy(ds, s1)
			for lo := 0; lo < m; lo += blockWords {
				hi := min(lo+blockWords, m)
				srBlock(oplus, dt[lo:hi], du[lo:hi], t1[lo:hi], u1[lo:hi], t2[lo:hi], u2[lo:hi])
				oplus.slice(dv[lo:hi], v1[lo:hi], v2[lo:hi])
			}
		}
		op.FlatHi = func(dst, own, fromLo *FlatTuple) {
			m := own.M()
			s2, t2, u2, v2 := own.Data[:m], own.Data[m:2*m], own.Data[2*m:3*m], own.Data[3*m:]
			t1, u1, v1 := fromLo.Data[:m], fromLo.Data[m:2*m], fromLo.Data[2*m:]
			ds, dt, du, dv := dst.Data[:m], dst.Data[m:2*m], dst.Data[2*m:3*m], dst.Data[3*m:]
			for lo := 0; lo < m; lo += blockWords {
				hi := min(lo+blockWords, m)
				ds, dt, du, dv := ds[lo:hi], dt[lo:hi], du[lo:hi], dv[lo:hi]
				oplus.slice(ds, s2[lo:hi], t1[lo:hi])
				oplus.slice(ds, ds, v1[lo:hi])
				oplus.slice(dt, t1[lo:hi], t2[lo:hi])
				oplus.slice(dt, dt, u1[lo:hi])
				oplus.slice(du, u1[lo:hi], u2[lo:hi]) // uu
				oplus.slice(dv, v1[lo:hi], v2[lo:hi]) // vv
				oplus.slice(dv, du, dv)
				oplus.slice(du, du, du)
			}
		}
	}
	return op
}

// Working is Op.Working for the balanced scan's node operator.
func (o *BalancedScanOp) Working(ar *Arena, x Value) Value {
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
	x, xf := own.(*FlatTuple)
	y, yf := from.(*FlatTuple)
	if xf && yf && o.FlatLo != nil && x.W == o.Arity && y.W == o.ShipWidth && y.M() == x.M() {
		d := ar.flatDst(dst, o.Arity, x.M())
		if higher {
			o.FlatHi(d, x, y)
		} else {
			o.FlatLo(d, x, y)
		}
		return d
	}
	if higher {
		return o.Hi(Boxed(own), Boxed(from))
	}
	return o.Lo(Boxed(own), Boxed(from))
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

// OpCompBS builds the e/o pair of rule BS-Comcast:
//
//	e(t,u) = (t, u ⊕ u)        o(t,u) = (t ⊕ u, u ⊕ u)
func OpCompBS(oplus *Op) *RepeatOps {
	r := &RepeatOps{
		Name:    fmt.Sprintf("op_comp_bs(%s)", oplus.Name),
		CostE:   1,
		CostO:   2,
		Arity:   2,
		Prepare: Pair,
		E: func(v Value) Value {
			t, u := tup2(v)
			return Tuple{t, oplus.Apply(u, u)}
		},
		O: func(v Value) Value {
			t, u := tup2(v)
			return Tuple{oplus.Apply(t, u), oplus.Apply(u, u)}
		},
	}
	if oplus.Elem != nil {
		r.FlatE = func(dst, v *FlatTuple) {
			m := v.M()
			copy(dst.Data[:m], v.Data[:m])
			oplus.slice(dst.Data[m:], v.Data[m:], v.Data[m:])
		}
		r.FlatO = func(dst, v *FlatTuple) {
			m := v.M()
			t, u := v.Data[:m], v.Data[m:]
			dt, du := dst.Data[:m], dst.Data[m:]
			for lo := 0; lo < m; lo += blockWords {
				hi := min(lo+blockWords, m)
				oplus.slice(dt[lo:hi], t[lo:hi], u[lo:hi])
				oplus.slice(du[lo:hi], u[lo:hi], u[lo:hi])
			}
		}
	}
	return r
}

// OpCompBSS2 builds the e/o pair of rule BSS2-Comcast (⊗ distributes
// over ⊕):
//
//	e(s,t,u) = (s, t ⊕ (t ⊗ u), u ⊗ u)
//	o(s,t,u) = (t ⊕ (s ⊗ u), t ⊕ (t ⊗ u), u ⊗ u)
func OpCompBSS2(otimes, oplus *Op) *RepeatOps {
	r := &RepeatOps{
		Name:    fmt.Sprintf("op_comp_bss2(%s,%s)", otimes.Name, oplus.Name),
		CostE:   3,
		CostO:   5,
		Arity:   3,
		Prepare: Triple,
		E: func(v Value) Value {
			s, t, u := tup3(v)
			return Tuple{s, oplus.Apply(t, otimes.Apply(t, u)), otimes.Apply(u, u)}
		},
		O: func(v Value) Value {
			s, t, u := tup3(v)
			return Tuple{
				oplus.Apply(t, otimes.Apply(s, u)),
				oplus.Apply(t, otimes.Apply(t, u)),
				otimes.Apply(u, u),
			}
		},
	}
	if oplus.Elem != nil && otimes.Elem != nil {
		r.FlatE = func(dst, v *FlatTuple) {
			m := v.M()
			s, t, u := v.Data[:m], v.Data[m:2*m], v.Data[2*m:]
			ds, dt, du := dst.Data[:m], dst.Data[m:2*m], dst.Data[2*m:]
			copy(ds, s)
			var tu [blockWords]float64
			for lo := 0; lo < m; lo += blockWords {
				hi := min(lo+blockWords, m)
				tu := tu[:hi-lo]
				otimes.slice(tu, t[lo:hi], u[lo:hi])
				oplus.slice(dt[lo:hi], t[lo:hi], tu)
				otimes.slice(du[lo:hi], u[lo:hi], u[lo:hi])
			}
		}
		r.FlatO = func(dst, v *FlatTuple) {
			m := v.M()
			s, t, u := v.Data[:m], v.Data[m:2*m], v.Data[2*m:]
			ds, dt, du := dst.Data[:m], dst.Data[m:2*m], dst.Data[2*m:]
			var xu [blockWords]float64
			for lo := 0; lo < m; lo += blockWords {
				hi := min(lo+blockWords, m)
				xu := xu[:hi-lo]
				otimes.slice(xu, s[lo:hi], u[lo:hi])
				oplus.slice(ds[lo:hi], t[lo:hi], xu)
				otimes.slice(xu, t[lo:hi], u[lo:hi])
				oplus.slice(dt[lo:hi], t[lo:hi], xu)
				otimes.slice(du[lo:hi], u[lo:hi], u[lo:hi])
			}
		}
	}
	return r
}

// OpCompBSS builds the e/o pair of rule BSS-Comcast (commutative ⊕):
//
//	e(s,t,u,v) = (s, t ⊕ t ⊕ u, uu ⊕ uu, v ⊕ v)            uu = u ⊕ u
//	o(s,t,u,v) = (s ⊕ t ⊕ v, t ⊕ t ⊕ u, uu ⊕ uu, uu ⊕ v ⊕ v)
func OpCompBSS(oplus *Op) *RepeatOps {
	r := &RepeatOps{
		Name:    fmt.Sprintf("op_comp_bss(%s)", oplus.Name),
		CostE:   5,
		CostO:   8,
		Arity:   4,
		Prepare: Quadruple,
		E: func(v Value) Value {
			s, t, u, vv := tup4(v)
			uu := oplus.Apply(u, u)
			return Tuple{
				s,
				oplus.Apply(oplus.Apply(t, t), u),
				oplus.Apply(uu, uu),
				oplus.Apply(vv, vv),
			}
		},
		O: func(v Value) Value {
			s, t, u, vv := tup4(v)
			uu := oplus.Apply(u, u)
			return Tuple{
				oplus.Apply(oplus.Apply(s, t), vv),
				oplus.Apply(oplus.Apply(t, t), u),
				oplus.Apply(uu, uu),
				oplus.Apply(oplus.Apply(uu, vv), vv),
			}
		},
	}
	if oplus.Elem != nil {
		r.FlatE = func(dst, v *FlatTuple) {
			m := v.M()
			s, t, u, w := v.Data[:m], v.Data[m:2*m], v.Data[2*m:3*m], v.Data[3*m:]
			ds, dt, du, dw := dst.Data[:m], dst.Data[m:2*m], dst.Data[2*m:3*m], dst.Data[3*m:]
			copy(ds, s)
			for lo := 0; lo < m; lo += blockWords {
				hi := min(lo+blockWords, m)
				srBlock(oplus, dt[lo:hi], du[lo:hi], t[lo:hi], u[lo:hi], t[lo:hi], u[lo:hi])
				oplus.slice(dw[lo:hi], w[lo:hi], w[lo:hi])
			}
		}
		r.FlatO = func(dst, v *FlatTuple) {
			m := v.M()
			s, t, u, w := v.Data[:m], v.Data[m:2*m], v.Data[2*m:3*m], v.Data[3*m:]
			ds, dt, du, dw := dst.Data[:m], dst.Data[m:2*m], dst.Data[2*m:3*m], dst.Data[3*m:]
			var uuw [blockWords]float64
			for lo := 0; lo < m; lo += blockWords {
				hi := min(lo+blockWords, m)
				ds, dt, du, uuw := ds[lo:hi], dt[lo:hi], du[lo:hi], uuw[:hi-lo]
				oplus.slice(ds, s[lo:hi], t[lo:hi])
				oplus.slice(ds, ds, w[lo:hi])
				oplus.slice(dt, t[lo:hi], t[lo:hi])
				oplus.slice(dt, dt, u[lo:hi])
				oplus.slice(du, u[lo:hi], u[lo:hi]) // uu
				oplus.slice(uuw, du, w[lo:hi])
				oplus.slice(dw[lo:hi], uuw, w[lo:hi])
				oplus.slice(du, du, du)
			}
		}
	}
	return r
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
	t, ok := v.(*FlatTuple)
	if !ok || r.FlatE == nil || t.W != r.Arity {
		if odd {
			return r.O(Boxed(v))
		}
		return r.E(Boxed(v))
	}
	d := ar.flatDst(dst, t.W, t.M())
	if odd {
		r.FlatO(d, t)
	} else {
		r.FlatE(d, t)
	}
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
	w := a.Words()
	if o.Arity > 1 {
		w /= o.Arity
	}
	return float64(o.Cost) * float64(w)
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

// OpBR builds op_br of rule BR-Local: op_br s = s ⊕ s. Iterated log p
// times it computes the p-fold reduction of the broadcast value.
func OpBR(oplus *Op) *IterOp {
	op := &IterOp{
		Name:    fmt.Sprintf("op_br(%s)", oplus.Name),
		Cost:    1,
		Arity:   1,
		Prepare: func(b Value) Value { return b },
		F:       func(s Value) Value { return oplus.Apply(s, s) },
	}
	if oplus.Elem != nil {
		op.FlatF = func(dst, v *FlatTuple) { oplus.slice(dst.Data, v.Data, v.Data) }
	}
	return op
}

// OpBSR2 builds op_bsr2 of rule BSR2-Local (⊗ distributes over ⊕):
//
//	op_bsr2(s,t) = (s ⊕ (s ⊗ t), t ⊗ t)
func OpBSR2(otimes, oplus *Op) *IterOp {
	op := &IterOp{
		Name:    fmt.Sprintf("op_bsr2(%s,%s)", otimes.Name, oplus.Name),
		Cost:    3,
		Arity:   2,
		Prepare: Pair,
		F: func(v Value) Value {
			s, t := tup2(v)
			return Tuple{oplus.Apply(s, otimes.Apply(s, t)), otimes.Apply(t, t)}
		},
	}
	if oplus.Elem != nil && otimes.Elem != nil {
		op.FlatF = func(dst, v *FlatTuple) {
			m := v.M()
			s, t := v.Data[:m], v.Data[m:]
			ds, dt := dst.Data[:m], dst.Data[m:]
			var st [blockWords]float64
			for lo := 0; lo < m; lo += blockWords {
				hi := min(lo+blockWords, m)
				st := st[:hi-lo]
				otimes.slice(st, s[lo:hi], t[lo:hi])
				oplus.slice(ds[lo:hi], s[lo:hi], st)
				otimes.slice(dt[lo:hi], t[lo:hi], t[lo:hi])
			}
		}
	}
	return op
}

// OpBSR builds op_bsr of rule BSR-Local (commutative ⊕):
//
//	op_bsr(t,u) = (t ⊕ t ⊕ u, uu ⊕ uu)    uu = u ⊕ u
func OpBSR(oplus *Op) *IterOp {
	op := &IterOp{
		Name:    fmt.Sprintf("op_bsr(%s)", oplus.Name),
		Cost:    4,
		Arity:   2,
		Prepare: Pair,
		F: func(v Value) Value {
			t, u := tup2(v)
			uu := oplus.Apply(u, u)
			return Tuple{
				oplus.Apply(oplus.Apply(t, t), u),
				oplus.Apply(uu, uu),
			}
		},
	}
	if oplus.Elem != nil {
		op.FlatF = func(dst, v *FlatTuple) {
			m := v.M()
			t, u := v.Data[:m], v.Data[m:]
			dt, du := dst.Data[:m], dst.Data[m:]
			for lo := 0; lo < m; lo += blockWords {
				hi := min(lo+blockWords, m)
				srBlock(oplus, dt[lo:hi], du[lo:hi], t[lo:hi], u[lo:hi], t[lo:hi], u[lo:hi])
			}
		}
	}
	return op
}
