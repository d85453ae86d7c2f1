package coll

import (
	"fmt"

	"repro/internal/algebra"
)

// This file is the one interpreter of every broadcast, reduction and scan:
// the butterfly family (coll.go), the balanced reduction (balanced.go) and
// the algorithm portfolio (algo.go). Each is a pure generator of one rank's
// schedule: per-round peers, block ranges and combining sides (Träff,
// arXiv 2410.14234). The arena and the ownership of every buffer are
// exec's, once for all; TestPortfolioSchedules checks every generator.

// buffer names one of the blocks a schedule addresses.
type buffer uint8

const (
	inBuf   buffer = iota // the caller's value, never written
	workBuf               // starts as inBuf: an arena copy of a Vec block, or whole, frame.value's form of it
	outBuf                // arena scratch the result is assembled in; whole, a second accumulator
	exclBuf               // whole: a scan leader's exclusive prefix, empty (Undef) until set
	msgBuf                // whole: the last value received
	nbuf
)

// action is what a step does with its range of its buffer.
type action uint8

const (
	doSend   action = iota // ship buf[lo:hi] to the peer as a borrow, frozen from then on
	doCopy                 // write the incoming words (whole: the incoming value) into buf[lo:hi]
	doLeft                 // buf[lo:hi] = incoming ⊕ buf[lo:hi]; with no peer the incoming is msgBuf
	doRight                // buf[lo:hi] = buf[lo:hi] ⊕ incoming
	doKeep                 // copy src[lo:hi] into buf[lo:hi]; whole, buf and src share the value
	doMove                 // whole: ship buf to the peer, giving it away when the rank owns it
	doSwap                 // whole: exchange buf for the peer's value, which lands in msgBuf
	doPrefix               // whole: doLeft, but an undetermined incoming is the empty prefix: buf becomes inBuf
	doCharge               // whole: charge min(Charge(buf), Charge(src)) and combine nothing
	doUnary                // whole: buf = op((), buf), the operator's one-sided case
)

// stackSteps is the longest range schedule exec keeps on its stack, which
// it zeroes on every call: a ring's at p ≤ 8.
const stackSteps = 32

// step is one action of one rank; peer is −1 when it has none.
type step struct {
	act      action
	buf, src buffer
	peer     int
	lo, hi   int
}

// schedule is one rank's part of a collective: its steps in program
// order and the range of the buffer that holds its result. A whole
// schedule addresses values of any shape and ignores the ranges; the
// others address word ranges of Vec blocks. With run set, a whole
// schedule is not kept: each step runs as the generator makes it.
type schedule struct {
	steps  []step
	res    buffer
	lo, hi int
	whole  bool
	run    *frame
}

// generator names a schedule generator, the whole ones first. Exec calls
// each directly, not through a function value, so the step list it passes
// stays on its stack.
type generator uint8

const (
	genNone generator = iota
	genBcast
	genReduce
	genAllReduce
	genScan
	genReduceBalanced
	genRabenseifner
	genRing
	genRingBi
	genPipeline
	genReduceScatter
)

// build makes s g's schedule for rank of p members on m-word blocks; arg
// is a rooted collective's root or the pipeline's segment count.
func (g generator) build(s *schedule, p, rank, m, arg int) {
	switch g {
	case genBcast:
		bcast(s, p, rank, arg)
	case genReduce:
		reduce(s, p, rank, arg)
	case genAllReduce:
		allReduce(s, p, rank)
	case genScan:
		scan(s, p, rank)
	case genRabenseifner:
		rabenseifner(s, p, rank, m)
	case genRing:
		rings(s, p, m, true, ringDir{p, rank, +1, 0, m})
	case genRingBi:
		rings(s, p, m, true, ringDir{p, rank, +1, 0, m / 2}, ringDir{p, rank, -1, m / 2, m - m/2})
	case genPipeline:
		pipeline(s, p, rank, m, arg)
	case genReduceScatter:
		rings(s, p, m, false, ringDir{p, rank, +1, 0, m})
	case genReduceBalanced:
		reduceBalanced(s, p, rank)
	default:
		panic(fmt.Sprintf("coll: no generator %d", g))
	}
}

// start makes s the schedule that returns buf[lo:hi] and takes at most n
// steps, in the steps s holds when they have room.
func (s *schedule) start(buf buffer, lo, hi, n int) {
	if s.run == nil && cap(s.steps) < n {
		s.steps = make([]step, 0, n)
	}
	s.steps, s.res, s.lo, s.hi = s.steps[:0], buf, lo, hi
}

// startWhole makes s the whole schedule that returns buf.
func (s *schedule) startWhole(buf buffer, n int) {
	s.start(buf, 0, 0, n)
	s.whole = true
}

// push runs st or appends it within the capacity start reserved: slicing
// in place, where append would not, keeps the caller's step array off the
// heap.
func (s *schedule) push(st step) {
	if s.run != nil {
		s.run.wholeStep(&st)
		return
	}
	n := len(s.steps)
	s.steps = s.steps[:n+1]
	s.steps[n] = st
}

// add appends the step that acts on buf[lo:hi] with peer.
func (s *schedule) add(act action, peer int, buf buffer, lo, hi int) {
	s.push(step{act: act, peer: peer, buf: buf, lo: lo, hi: hi})
}

// with appends the whole step that acts on buf with peer.
func (s *schedule) with(act action, peer int, buf buffer) {
	s.push(step{act: act, peer: peer, buf: buf})
}

// owners says, per whole buffer, whether the rank may write its value in
// place: scratch it made or adopted and has not shipped or shared since.
type owners [nbuf]bool

// next is the one ownership rule: it updates the permissions for step st —
// adopted says whether its receive moved the value here — and says where
// a combine writes: in place into the buffer's value, into the incoming
// value a move made this rank's, or else into fresh scratch. Shipping a
// value or sharing it between two buffers freezes it; a combine owns what
// it writes; an adopted value is used up by the combine that writes it.
func (o *owners) next(st *step, adopted bool) (inPlace, adopt bool) {
	switch st.act {
	case doSend, doMove:
		o[st.buf] = false
	case doSwap:
		o[st.buf], o[msgBuf] = false, false
	case doCopy:
		o[st.buf] = adopted
	case doKeep:
		o[st.buf], o[st.src] = false, false
	case doLeft, doRight, doPrefix, doUnary:
		inPlace = o[st.buf]
		adopt = !inPlace && st.act != doUnary && (adopted || st.peer < 0 && o[msgBuf])
		o[st.buf], o[msgBuf] = true, false
	}
	return inPlace, adopt
}

// frame is a running schedule's communicator, tag and buffers.
type frame struct {
	c   Comm
	tag int
	ar  *algebra.Arena
	op  *algebra.Op
	val [nbuf]Value
	own owners
}

// get returns buf's words, drawing workBuf (a copy of inBuf) or outBuf
// from the arena the first time.
func (f *frame) get(buf buffer) algebra.Vec {
	if f.val[buf] == nil {
		in := f.val[inBuf].(algebra.Vec)
		f.val[buf] = f.ar.Vec(len(in))
		if buf == workBuf {
			copy(f.val[buf].(algebra.Vec), in)
		}
	}
	return f.val[buf].(algebra.Vec)
}

// view is buf[lo:hi] as a Value: the buffer's own box when the range is
// all of it, a boxed slice otherwise.
func (f *frame) view(buf buffer, lo, hi int) Value {
	if v := f.get(buf); lo > 0 || hi < len(v) {
		return v[lo:hi]
	}
	return f.val[buf]
}

// value is whole buffer buf's value. workBuf starts as the input in the
// form the operator works on (algebra.Op.Working): a flat copy the rank
// owns, or the input itself, a flat one included, which it does not;
// exclBuf starts as the empty prefix.
func (f *frame) value(buf buffer) Value {
	if f.val[buf] == nil && buf == workBuf {
		var dst Value
		f.val[buf], dst = f.op.Working(f.ar, f.val[inBuf])
		f.own[buf] = dst != nil
	} else if f.val[buf] == nil && buf == exclBuf {
		f.val[buf] = algebra.Undef{}
	}
	return f.val[buf]
}

// exec runs gen's schedule for the caller on c, combining with op. On word
// ranges x must be a Vec of at least max(need, 1) words (name is the entry
// point, for the panic). A whole result the rank computed is returned in
// the form the operator works in, a flat tuple for a derived operator's
// (the package doc's "Results"), drawn from the rank's arena and valid
// until the machine's next run. Nothing is written after its send: the
// generators guarantee it for ranges, the ownership rule for whole values,
// and TestPortfolioSchedules checks both.
func exec(c Comm, op *algebra.Op, x Value, name string, need int, gen generator, arg int) Value {
	f := frame{c: c, ar: c.Caps().Arena, op: op, val: [nbuf]Value{x}}
	if gen <= genReduceBalanced {
		f.tag = c.NextTag()
		s := schedule{run: &f}
		gen.build(&s, c.Size(), c.Rank(), 0, arg)
		return f.value(s.res)
	}
	vec, ok := x.(algebra.Vec)
	if !ok || len(vec) < max(need, 1) {
		panic(fmt.Sprintf("coll: %s needs a Vec block of at least %d words", name, max(need, 1)))
	}
	var steps [stackSteps]step
	s := schedule{steps: steps[:0]}
	gen.build(&s, c.Size(), c.Rank(), len(vec), arg)
	f.tag = c.NextTag()
	for _, st := range s.steps {
		f.rangeStep(st)
	}
	return f.view(s.res, s.lo, s.hi)
}

// rangeStep runs st on word ranges.
func (f *frame) rangeStep(st step) {
	switch st.act {
	case doSend:
		f.c.Send(st.peer, f.view(st.buf, st.lo, st.hi), f.tag)
	case doKeep:
		copy(f.get(st.buf)[st.lo:st.hi], f.get(st.src)[st.lo:st.hi])
	case doCopy:
		copy(f.get(st.buf)[st.lo:st.hi], f.c.Recv(st.peer, f.tag).(algebra.Vec))
	default:
		in, dst := f.c.Recv(st.peer, f.tag), f.view(st.buf, st.lo, st.hi)
		if st.act == doLeft {
			f.op.ApplyInto(dst, in, dst)
		} else {
			f.op.ApplyInto(dst, dst, in)
		}
		f.c.Compute(f.op.Charge(dst))
	}
}

// wholeStep runs st on whole values.
func (f *frame) wholeStep(st *step) {
	c, tag, adopted := f.c, f.tag, false
	switch st.act {
	case doSend:
		c.Send(st.peer, f.value(st.buf), tag)
	case doMove:
		if v := f.value(st.buf); f.own[st.buf] {
			c.SendMove(st.peer, v, tag)
		} else {
			c.Send(st.peer, v, tag)
		}
		f.val[st.buf] = nil
	case doSwap:
		f.val[msgBuf] = c.Exchange(st.peer, f.value(st.buf), tag)
	case doCopy:
		f.val[st.buf], adopted = c.RecvOwned(st.peer, tag)
	case doKeep:
		f.val[st.buf] = f.value(st.src)
	case doCharge:
		c.Compute(min(f.op.Charge(f.value(st.buf)), f.op.Charge(f.value(st.src))))
	default:
		if st.peer >= 0 {
			f.val[msgBuf], adopted = c.RecvOwned(st.peer, tag)
		}
		in, cur := f.val[msgBuf], f.value(st.buf)
		if st.act == doPrefix && algebra.IsUndef(in) {
			f.val[st.buf], f.own[st.buf] = f.val[inBuf], false
			return
		}
		dst := cur
		if inPlace, adopt := f.own.next(st, adopted); adopt {
			dst, f.val[msgBuf] = in, nil
		} else if !inPlace {
			dst = nil // the combine draws its result
		}
		switch st.act {
		case doUnary:
			f.val[st.buf] = f.op.ApplyUnaryIn(f.ar, dst, cur)
		case doRight:
			f.val[st.buf] = f.op.ApplyIn(f.ar, dst, cur, in)
		default:
			f.val[st.buf] = f.op.ApplyIn(f.ar, dst, in, cur)
		}
		c.Compute(f.op.Charge(f.val[st.buf]))
		return
	}
	f.own.next(st, adopted)
}
