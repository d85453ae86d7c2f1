package coll

import (
	"fmt"

	"repro/internal/algebra"
)

// This file is the one interpreter of the algorithm portfolio (algo.go).
// Each algorithm is a pure generator of one rank's schedule: per-round
// peers, block ranges and combining sides (Träff, arXiv 2410.14234). The
// arena and the rule that a shipped range is never written again are
// exec's, once for all of them; TestPortfolioSchedules checks every
// generator statically.

// buffer names one of the three m-word blocks a schedule addresses.
type buffer uint8

const (
	inBuf   buffer = iota // the caller's block, never written
	workBuf               // arena scratch that starts as a copy of inBuf
	outBuf                // arena scratch the result is assembled in
)

// action is what a step does with its range of its buffer.
type action uint8

const (
	doSend  action = iota // ship buf[lo:hi] to the peer, frozen from then on
	doCopy                // write the incoming words into buf[lo:hi]
	doLeft                // buf[lo:hi] = incoming ⊕ buf[lo:hi]
	doRight               // buf[lo:hi] = buf[lo:hi] ⊕ incoming
	doKeep                // copy workBuf[lo:hi] into outBuf[lo:hi]; no peer
)

// step is one action of one rank.
type step struct {
	act    action
	peer   int
	buf    buffer
	lo, hi int
}

// schedule is one rank's part of a portfolio algorithm: its steps in
// program order — a round is a run of sends followed by the run of
// receives that completes it — and the range of the buffer that holds the
// rank's result.
type schedule struct {
	steps  []step
	res    buffer
	lo, hi int
}

// generator builds rank's schedule for a group of p members reducing
// m-word blocks; parts is the pipeline's segment count, ignored by the
// others.
type generator func(p, rank, m, parts int) schedule

// result makes the schedule that returns buf[lo:hi] and takes n steps.
func result(buf buffer, lo, hi, n int) schedule {
	return schedule{steps: make([]step, 0, n), res: buf, lo: lo, hi: hi}
}

// add appends a step.
func (s *schedule) add(act action, peer int, buf buffer, lo, hi int) {
	s.steps = append(s.steps, step{act: act, peer: peer, buf: buf, lo: lo, hi: hi})
}

// frame is a running schedule's buffers: the whole block of each, boxed
// once, and its words. workBuf and outBuf come from the arena on first
// use.
type frame struct {
	ar    *algebra.Arena
	boxed [3]Value
	vec   [3]algebra.Vec
}

// get returns buf's words, drawing workBuf (a copy of inBuf) or outBuf
// from the arena the first time.
func (f *frame) get(buf buffer) algebra.Vec {
	if f.vec[buf] == nil {
		f.boxed[buf] = f.ar.Vec(len(f.vec[inBuf]))
		f.vec[buf] = f.boxed[buf].(algebra.Vec)
		if buf == workBuf {
			copy(f.vec[workBuf], f.vec[inBuf])
		}
	}
	return f.vec[buf]
}

// view is buf[lo:hi] as a Value: the buffer's own box when the range is
// all of it, a boxed slice otherwise.
func (f *frame) view(buf buffer, lo, hi int) Value {
	v := f.get(buf)
	if lo == 0 && hi == len(v) {
		return f.boxed[buf]
	}
	return v[lo:hi]
}

// exec checks that x is a Vec of at least max(need, 1) words — name is
// the algorithm's entry point, for the panic — and runs gen's schedule for
// the caller on c, combining with op. Sends ship views of the buffers, so
// a range is never written after its send (the generators guarantee it,
// TestPortfolioSchedules checks it), and in-place combining only touches
// ranges the rank has not shipped.
func exec(c Comm, op *algebra.Op, x Value, name string, need int, gen generator, parts int) Value {
	vec, ok := x.(algebra.Vec)
	if !ok || len(vec) < max(need, 1) {
		panic(fmt.Sprintf("coll: %s needs a Vec block of at least %d words", name, max(need, 1)))
	}
	s := gen(c.Size(), c.Rank(), len(vec), parts)
	f := frame{ar: c.Caps().Arena, boxed: [3]Value{x}, vec: [3]algebra.Vec{vec}}
	tag := c.NextTag()
	for _, st := range s.steps {
		switch st.act {
		case doSend:
			c.Send(st.peer, f.view(st.buf, st.lo, st.hi), tag)
		case doKeep:
			copy(f.get(outBuf)[st.lo:st.hi], f.get(workBuf)[st.lo:st.hi])
		case doCopy:
			copy(f.get(st.buf)[st.lo:st.hi], c.Recv(st.peer, tag).(algebra.Vec))
		default:
			in := c.Recv(st.peer, tag)
			dst := f.view(st.buf, st.lo, st.hi)
			if st.act == doLeft {
				op.ApplyInto(dst, in, dst)
			} else {
				op.ApplyInto(dst, dst, in)
			}
			c.Compute(op.Charge(dst))
		}
	}
	return f.view(s.res, s.lo, s.hi)
}
