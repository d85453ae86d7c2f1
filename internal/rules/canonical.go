package rules

import "repro/internal/term"

// Canonical renders a program in a stable canonical form of the surface
// syntax — the form used as a plan-cache key by the optimization service
// (package serve): "id" for the empty program, else the flat program's
// String, in one allocation. Two programs that are EqualTerms share the
// string, regardless of the whitespace, comments or nesting of the source
// they were parsed from — but not only they: two derived operators built
// apart share their name, not their identity.
//
// For every stage expressible in the lang grammar the rendering is the
// concrete syntax the parser accepts, so parse → Canonical is a fixed
// point: Canonical(parse(Canonical(parse(src)))) == Canonical(parse(src))
// (property-tested in canonical_test.go). Stages outside the grammar
// (map#, the balanced forms, comcast, iter — the rule right-hand sides)
// render deterministically and keyed on the operator name, still a sound
// cache key.
func Canonical(s term.Seq) string {
	stages := s.Flat()
	if len(stages) == 0 {
		return "id"
	}
	return stages.String()
}

// appendJoined appends the stages as term.Seq prints them: each stage's
// rendering, separated by " ; ".
func appendJoined(b []byte, stages []term.Term) []byte {
	for i, st := range stages {
		if i > 0 {
			b = append(b, " ; "...)
		}
		b = term.AppendStage(b, st)
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
			b = term.AppendStage(b, st)
		}
	}
	if first {
		b = append(b, "id"...)
	}
	return b
}
