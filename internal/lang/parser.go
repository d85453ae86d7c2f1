package lang

import (
	"fmt"
	"strconv"
	"sync"

	"repro/internal/algebra"
	"repro/internal/term"
)

// Symbols resolves operator and function names during parsing.
type Symbols struct {
	ops map[string]*algebra.Op
	fns map[string]*term.Fn
	// reduces holds each operator's reduce and allreduce, boxed once: 2.0
	// allocations less a plan-miss request and no time, kept for the
	// planner's allocation budget (docs/PERF.md "What each planner
	// mechanism buys").
	reduces map[*algebra.Op][2]term.Term
}

// NewSymbols returns a table pre-loaded with the standard base operators
// (+, *, max, min, left, -) and the auxiliary functions (pair, triple,
// quadruple, pi_1).
func NewSymbols() *Symbols {
	s := &Symbols{
		ops:     make(map[string]*algebra.Op),
		fns:     make(map[string]*term.Fn),
		reduces: make(map[*algebra.Op][2]term.Term),
	}
	for _, op := range []*algebra.Op{
		algebra.Add, algebra.Mul, algebra.Max, algebra.Min, algebra.Left, algebra.Sub,
	} {
		s.DefineOp(op)
	}
	for _, fn := range []*term.Fn{
		term.PairFn, term.TripleFn, term.QuadrupleFn, term.FirstFn,
	} {
		s.DefineFn(fn)
	}
	return s
}

// DefineOp registers an operator under its name.
func (s *Symbols) DefineOp(op *algebra.Op) {
	s.ops[op.Name] = op
	s.reduces[op] = [2]term.Term{term.Reduce{Op: op}, term.Reduce{Op: op, All: true}}
}

// DefineFn registers a map function under its name.
func (s *Symbols) DefineFn(fn *term.Fn) { s.fns[fn.Name] = fn }

// Op looks up an operator by name.
func (s *Symbols) Op(name string) (*algebra.Op, bool) {
	op, ok := s.ops[name]
	return op, ok
}

// Fn looks up a map function by name.
func (s *Symbols) Fn(name string) (*term.Fn, bool) {
	fn, ok := s.fns[name]
	return fn, ok
}

// parser is a recursive-descent parser over the token stream.
type parser struct {
	toks []Token
	pos  int
	syms *Symbols
}

func (p *parser) peek() Token { return p.toks[p.pos] }

func (p *parser) next() Token {
	t := p.toks[p.pos]
	if t.Kind != TokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expect(kind TokenKind) (Token, error) {
	t := p.next()
	if t.Kind != kind {
		return t, errorf(t.Line, t.Col, "expected %s, found %s", kind, t)
	}
	return t, nil
}

// Parse parses a program in the paper's notation:
//
//	program := stage (';' stage)*
//	stage   := 'bcast'
//	         | ('scan' | 'reduce' | 'allreduce') '(' opname ')'
//	         | 'map' fnname
//	         | 'halo' '(' int (',' int)* ')'
//	         | 'allgatherv' '(' uint (',' uint)* ')'
//	         | 'reduce_scatterv' '(' opname ',' uint (',' uint)* ')'
//
// resolving names against syms (nil means NewSymbols()). Halo offsets
// may be negative; counts vectors may not. The whole source is lexed before
// any of it is parsed, so a lexical error anywhere outranks a parse error.
func Parse(src string, syms *Symbols) (term.Term, error) {
	stages, err := ParseStages(src, syms, 0)
	if err != nil {
		return nil, err
	}
	return stages, nil
}

// StagesError refuses a program of more stages than the parse allows.
type StagesError struct {
	// Stages is the program's stage count, Max the bound it exceeds.
	Stages, Max int
}

func (e *StagesError) Error() string {
	return fmt.Sprintf("program has %d stages, at most %d", e.Stages, e.Max)
}

// tokenPool holds the token storage ParseStages lexes into; a slice grown
// past maxPooledTokens goes back to the allocator instead.
var tokenPool = sync.Pool{New: func() any { return new([]Token) }}

const maxPooledTokens = 1024

// ParseStages is Parse returning the program's stage list itself, flat. With
// maxStages > 0 it refuses a program of more stages than that with a
// *StagesError before lexing it: the count is the source's semicolons
// outside comments, plus one. The tokens are lexed into pooled storage and
// the stage list is sized once, so a parse allocates the list and the stages
// that do not fit in an interface word.
func ParseStages(src string, syms *Symbols, maxStages int) (term.Seq, error) {
	n := stageCount(src)
	if maxStages > 0 && n > maxStages {
		return nil, &StagesError{Stages: n, Max: maxStages}
	}
	if syms == nil {
		syms = NewSymbols()
	}
	buf := tokenPool.Get().(*[]Token)
	toks, err := lex((*buf)[:0], src)
	var stages term.Seq
	if err == nil {
		stages, err = parse(toks, syms, n)
	}
	if cap(toks) <= maxPooledTokens {
		clear(toks) // the texts point into src
		*buf = toks[:0]
		tokenPool.Put(buf)
	}
	return stages, err
}

// stageCount is the number of stages src separates: its semicolons outside
// comments, plus one. A semicolon or '#' byte is never part of a longer
// token, or of a UTF-8 sequence.
func stageCount(src string) int {
	n := 1
	for i := 0; i < len(src); i++ {
		switch src[i] {
		case ';':
			n++
		case '#':
			for i < len(src) && src[i] != '\n' {
				i++
			}
		}
	}
	return n
}

// parse parses the token stream of a program of n stages.
func parse(toks []Token, syms *Symbols, n int) (term.Seq, error) {
	p := &parser{toks: toks, syms: syms}
	stages := make(term.Seq, 0, n)
	for {
		st, err := p.stage()
		if err != nil {
			return nil, err
		}
		stages = append(stages, st)
		if p.peek().Kind != TokSemi {
			break
		}
		p.next()
	}
	if _, err := p.expect(TokEOF); err != nil {
		return nil, err
	}
	return stages, nil
}

func (p *parser) stage() (term.Term, error) {
	t, err := p.expect(TokIdent)
	if err != nil {
		return nil, err
	}
	switch t.Text {
	case "bcast":
		return term.Bcast{}, nil
	case "gather":
		return term.Gather{}, nil
	case "scatter":
		return term.Scatter{}, nil
	case "scan":
		op, err := p.opArg(t)
		if err != nil {
			return nil, err
		}
		return term.Scan{Op: op}, nil
	case "reduce", "allreduce":
		op, err := p.opArg(t)
		if err != nil {
			return nil, err
		}
		if t.Text == "reduce" {
			return p.syms.reduces[op][0], nil
		}
		return p.syms.reduces[op][1], nil
	case "halo":
		offs, err := p.intList(t, true)
		if err != nil {
			return nil, err
		}
		return term.Halo{H: &term.Hood{Offsets: offs}}, nil
	case "allgatherv":
		counts, err := p.intList(t, false)
		if err != nil {
			return nil, err
		}
		return term.AllGatherV{Counts: counts}, nil
	case "reduce_scatterv":
		if _, err := p.expect(TokLParen); err != nil {
			return nil, err
		}
		ot := p.next()
		if ot.Kind != TokIdent && ot.Kind != TokOp {
			return nil, errorf(ot.Line, ot.Col, "expected an operator name after reduce_scatterv(, found %s", ot)
		}
		op, ok := p.syms.Op(ot.Text)
		if !ok {
			return nil, errorf(ot.Line, ot.Col, "unknown operator %q", ot.Text)
		}
		if _, err := p.expect(TokComma); err != nil {
			return nil, err
		}
		counts, err := p.ints(false)
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokRParen); err != nil {
			return nil, err
		}
		return term.ReduceScatterV{Op: op, Counts: counts}, nil
	case "map":
		name, err := p.expect(TokIdent)
		if err != nil {
			return nil, err
		}
		fn, ok := p.syms.Fn(name.Text)
		if !ok {
			return nil, errorf(name.Line, name.Col, "unknown map function %q", name.Text)
		}
		return term.Map{F: fn}, nil
	default:
		return nil, errorf(t.Line, t.Col, "unknown stage %q (expected bcast, gather, scatter, scan, reduce, allreduce or map)", t.Text)
	}
}

// intList parses '(' int (',' int)* ')'.
func (p *parser) intList(stage Token, signed bool) ([]int, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	out, err := p.ints(signed)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return out, nil
}

// ints parses int (',' int)*, where an int is a TokNumber optionally
// preceded (when signed) by a '-' operator token.
func (p *parser) ints(signed bool) ([]int, error) {
	var out []int
	for {
		neg := false
		if t := p.peek(); signed && t.Kind == TokOp && t.Text == "-" {
			p.next()
			neg = true
		}
		t, err := p.expect(TokNumber)
		if err != nil {
			return nil, err
		}
		v, err2 := strconv.Atoi(t.Text)
		if err2 != nil {
			return nil, errorf(t.Line, t.Col, "bad integer %q", t.Text)
		}
		if neg {
			v = -v
		}
		out = append(out, v)
		if p.peek().Kind != TokComma {
			return out, nil
		}
		p.next()
	}
}

// opArg parses '(' opname ')' and resolves the operator.
func (p *parser) opArg(stage Token) (*algebra.Op, error) {
	if _, err := p.expect(TokLParen); err != nil {
		return nil, err
	}
	t := p.next()
	if t.Kind != TokIdent && t.Kind != TokOp {
		return nil, errorf(t.Line, t.Col, "expected an operator name after %s(, found %s", stage.Text, t)
	}
	op, ok := p.syms.Op(t.Text)
	if !ok {
		return nil, errorf(t.Line, t.Col, "unknown operator %q", t.Text)
	}
	if _, err := p.expect(TokRParen); err != nil {
		return nil, err
	}
	return op, nil
}
