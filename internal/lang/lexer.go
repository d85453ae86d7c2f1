// Package lang provides a small textual front-end for the formal
// framework: a lexer and parser for program terms written in the paper's
// notation, e.g.
//
//	bcast ; scan(+) ; reduce(*)
//	map pair ; allreduce(max) ; map pi_1
//
// The parser produces term.Term values ready for the optimizer, the cost
// estimator and the virtual machine. Operators and map functions are
// resolved against a Symbols table pre-loaded with the standard base
// operators and auxiliary functions; comments run from '#' to end of line.
package lang

import (
	"fmt"
	"strings"
	"unicode"
	"unicode/utf8"
)

// TokenKind classifies lexer tokens.
type TokenKind int

// Token kinds.
const (
	// TokEOF marks the end of input.
	TokEOF TokenKind = iota
	// TokIdent is an identifier such as scan, bcast, pair, max.
	TokIdent
	// TokOp is a symbolic operator: + * - and friends.
	TokOp
	// TokSemi is the composition separator ';'.
	TokSemi
	// TokLParen is '('.
	TokLParen
	// TokRParen is ')'.
	TokRParen
	// TokComma is ','.
	TokComma
	// TokNumber is an unsigned decimal integer literal, as in the offset
	// and counts lists of the sparse collectives: halo(-1,1),
	// allgatherv(2,0,3). A leading sign lexes as a separate TokOp.
	TokNumber
)

func (k TokenKind) String() string {
	switch k {
	case TokEOF:
		return "end of input"
	case TokIdent:
		return "identifier"
	case TokOp:
		return "operator"
	case TokSemi:
		return "';'"
	case TokLParen:
		return "'('"
	case TokRParen:
		return "')'"
	case TokComma:
		return "','"
	case TokNumber:
		return "number"
	}
	return fmt.Sprintf("TokenKind(%d)", int(k))
}

// Token is one lexical token with its source position.
type Token struct {
	Kind TokenKind
	Text string
	// Pos is the 0-based byte offset, Line/Col are 1-based.
	Pos, Line, Col int
}

func (t Token) String() string {
	if t.Kind == TokEOF {
		return "end of input"
	}
	return fmt.Sprintf("%q", t.Text)
}

// Error is a lexing or parsing error with source position.
type Error struct {
	Line, Col int
	Msg       string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errorf(line, col int, format string, args ...any) *Error {
	return &Error{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}

func isIdentStart(r rune) bool {
	return unicode.IsLetter(r) || r == '_'
}

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_'
}

// symbolic operator characters accepted as TokOp. The colon appears in
// the MPI notation's Program headers (x: input).
const opChars = "+*-/<>=&|^%:"

// punct maps the one-byte tokens to their kinds; TokEOF marks the rest.
var punct = [256]TokenKind{';': TokSemi, '(': TokLParen, ')': TokRParen, ',': TokComma}

// maxInitialTokens caps the token slice Lex sizes from the source at 6 KiB,
// however long a source of blanks and comments is; a source with more
// tokens grows the slice by appending.
const maxInitialTokens = 128

// Lex tokenizes src, which is UTF-8: columns count runes, Pos bytes. It
// returns the token stream ending in TokEOF, or a positioned error on an
// unexpected character or a byte that is not UTF-8.
func Lex(src string) ([]Token, error) {
	// A dense program in canonical form has at most one token per two bytes
	// of source, plus TokEOF; a denser source grows the slice as it goes.
	toks, err := lex(make([]Token, 0, min(len(src)/2+2, maxInitialTokens)), src)
	if err != nil {
		return nil, err
	}
	return toks, nil
}

// lex is Lex appending to toks, which it returns grown on an error too.
func lex(toks []Token, src string) ([]Token, error) {
	n := len(src)
	line, col := 1, 1
	i := 0
	for i < n {
		c, size := decode(src, i)
		switch {
		case c == utf8.RuneError && size == 1:
			return toks, errorf(line, col, "unexpected byte %#x (not UTF-8)", src[i])
		case c == '\n':
			line++
			col = 1
			i++
		case c == ' ' || c == '\t' || c == '\r':
			col++
			i++
		case c == '#':
			for i < n && src[i] != '\n' {
				i++
			}
		case c < utf8.RuneSelf && punct[c] != TokEOF:
			toks = append(toks, Token{Kind: punct[c], Text: src[i : i+1], Pos: i, Line: line, Col: col})
			i++
			col++
		case strings.ContainsRune(opChars, c):
			start := i
			startCol := col
			for i < n && strings.IndexByte(opChars, src[i]) >= 0 {
				i++
				col++
			}
			toks = append(toks, Token{Kind: TokOp, Text: src[start:i], Pos: start, Line: line, Col: startCol})
		case '0' <= c && c <= '9':
			start := i
			startCol := col
			for i < n && '0' <= src[i] && src[i] <= '9' {
				i++
				col++
			}
			toks = append(toks, Token{Kind: TokNumber, Text: src[start:i], Pos: start, Line: line, Col: startCol})
		case isIdentStart(c):
			start := i
			startCol := col
			for i < n {
				r, size := decode(src, i)
				if !isIdentRune(r) {
					break
				}
				i += size
				col++
			}
			toks = append(toks, Token{Kind: TokIdent, Text: src[start:i], Pos: start, Line: line, Col: startCol})
		default:
			return toks, errorf(line, col, "unexpected character %q", c)
		}
	}
	return append(toks, Token{Kind: TokEOF, Pos: n, Line: line, Col: col}), nil
}

// decode is the rune at byte i of src and its length in bytes; a byte that
// does not begin a UTF-8 sequence is utf8.RuneError of length 1.
func decode(src string, i int) (rune, int) {
	if c := src[i]; c < utf8.RuneSelf {
		return rune(c), 1
	}
	return utf8.DecodeRuneInString(src[i:])
}
