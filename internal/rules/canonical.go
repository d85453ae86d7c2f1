package rules

import (
	"strings"

	"repro/internal/term"
)

// Canonical renders a program in a stable canonical form of the surface
// syntax — the form used as a plan-cache key by the optimization service
// (package serve). Two programs have the same Canonical string exactly
// when they are EqualTerms over the same named operators and functions,
// regardless of the whitespace, comments or nesting of the source they
// were parsed from.
//
// For every stage expressible in the lang grammar the rendering is the
// concrete syntax the parser accepts, so parse → Canonical is a fixed
// point: Canonical(parse(Canonical(parse(src)))) == Canonical(parse(src))
// (property-tested in canonical_test.go). Stages outside the grammar
// (map#, the balanced forms, comcast, iter — the rule right-hand sides —
// and the sparse collectives) render as their String, which is
// deterministic and keyed on the operator name, still a sound cache key.
//
// Every stage but a sparse one is written as pieces into one
// strings.Builder sized from them, so such a program costs one allocation.
func Canonical(s term.Seq) string {
	stages := s.Flat()
	if len(stages) == 0 {
		return "id"
	}
	n := len(" ; ") * (len(stages) - 1)
	for _, st := range stages {
		head, name, tail, _ := canonicalStage(st)
		n += len(head) + len(name) + len(tail)
	}
	var b strings.Builder
	b.Grow(n)
	for i, st := range stages {
		if i > 0 {
			b.WriteString(" ; ")
		}
		head, name, tail, ok := canonicalStage(st)
		if !ok {
			b.WriteString(st.String())
			continue
		}
		b.WriteString(head)
		b.WriteString(name)
		b.WriteString(tail)
	}
	return b.String()
}

// reduceHeads are the reductions' renderings up to the operator, indexed
// by 2·All + Balanced.
var reduceHeads = [4]string{"reduce(", "reduce_balanced(", "allreduce(", "allreduce_balanced("}

// canonicalStage returns a stage's rendering, byte for byte its String, as
// three pieces written back to back, or ok = false for a stage rendered by
// its String: the sparse collectives, whose String is their parseable form.
func canonicalStage(st term.Term) (head, name, tail string, ok bool) {
	switch x := st.(type) {
	case term.Map:
		return "map ", x.F.Name, "", true
	case term.Scan:
		return "scan(", x.Op.Name, ")", true
	case term.Reduce:
		i := 0
		if x.All {
			i = 2
		}
		if x.Balanced {
			i++
		}
		return reduceHeads[i], x.Op.Name, ")", true
	case term.Bcast:
		return "bcast", "", "", true
	case term.Gather:
		return "gather", "", "", true
	case term.Scatter:
		return "scatter", "", "", true
	case term.MapIdx:
		return "map# ", x.F.Name, "", true
	case term.ScanBal:
		return "scan_balanced(", x.Op.Name, ")", true
	case term.Iter:
		return "iter(", x.Op.Name, ")", true
	case term.Comcast:
		if x.CostOptimal {
			return "comcast(", x.Ops.Name, ")", true
		}
		return "bcast; map# repeat(", x.Ops.Name, ")", true
	}
	return "", "", "", false
}

// appendStage appends a stage's canonical rendering.
func appendStage(b []byte, st term.Term) []byte {
	head, name, tail, ok := canonicalStage(st)
	if !ok {
		return append(b, st.String()...)
	}
	return append(append(append(b, head...), name...), tail...)
}

// appendJoined appends the stages as term.Seq prints them: each stage's
// rendering, separated by " ; ".
func appendJoined(b []byte, stages []term.Term) []byte {
	for i, st := range stages {
		if i > 0 {
			b = append(b, " ; "...)
		}
		b = appendStage(b, st)
	}
	return b
}

// appendRewritten appends Canonical of the program the match rewrites
// stages to, without building the program.
func appendRewritten(b []byte, stages []term.Term, mt match) []byte {
	first := true
	for _, seg := range [...][]term.Term{stages[:mt.pos], mt.after, stages[mt.pos+len(mt.before):]} {
		for _, st := range seg {
			if !first {
				b = append(b, " ; "...)
			}
			first = false
			b = appendStage(b, st)
		}
	}
	if first {
		b = append(b, "id"...)
	}
	return b
}
