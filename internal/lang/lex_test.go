package lang_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"repro/internal/lang"
	"repro/internal/rules"
)

// lexOracle is Lex as it was written before it sized its token slice and
// dropped its emit closure. It is the reference Lex is held to.
func lexOracle(src string) ([]lang.Token, error) {
	const opChars = "+*-/<>=&|^%:"
	isIdentStart := func(r rune) bool { return unicode.IsLetter(r) || r == '_' }
	isIdentRune := func(r rune) bool { return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' }
	var toks []lang.Token
	line, col := 1, 1
	i := 0
	n := len(src)
	emit := func(kind lang.TokenKind, text string) {
		toks = append(toks, lang.Token{Kind: kind, Text: text, Pos: i, Line: line, Col: col})
	}
	for i < n {
		c := rune(src[i])
		switch {
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
		case c == ';':
			emit(lang.TokSemi, ";")
			i++
			col++
		case c == '(':
			emit(lang.TokLParen, "(")
			i++
			col++
		case c == ')':
			emit(lang.TokRParen, ")")
			i++
			col++
		case c == ',':
			emit(lang.TokComma, ",")
			i++
			col++
		case strings.ContainsRune(opChars, c):
			start, startCol := i, col
			for i < n && strings.ContainsRune(opChars, rune(src[i])) {
				i++
				col++
			}
			toks = append(toks, lang.Token{Kind: lang.TokOp, Text: src[start:i], Pos: start, Line: line, Col: startCol})
		case unicode.IsDigit(c):
			start, startCol := i, col
			for i < n && unicode.IsDigit(rune(src[i])) {
				i++
				col++
			}
			toks = append(toks, lang.Token{Kind: lang.TokNumber, Text: src[start:i], Pos: start, Line: line, Col: startCol})
		case isIdentStart(c):
			start, startCol := i, col
			for i < n && isIdentRune(rune(src[i])) {
				i++
				col++
			}
			toks = append(toks, lang.Token{Kind: lang.TokIdent, Text: src[start:i], Pos: start, Line: line, Col: startCol})
		default:
			return nil, &lang.Error{Line: line, Col: col, Msg: fmt.Sprintf("unexpected character %q", c)}
		}
	}
	toks = append(toks, lang.Token{Kind: lang.TokEOF, Pos: n, Line: line, Col: col})
	return toks, nil
}

// respell changes a program's spelling without changing its meaning, or
// with a random byte that may break it: blanks, newlines and comments
// between the tokens, and now and then a stray character.
func respell(rng *rand.Rand, src string) string {
	const stray = "@!\xc3\xe2\x80\xa8${}7_"
	var b strings.Builder
	for i := 0; i < len(src); i++ {
		switch rng.Intn(12) {
		case 0:
			b.WriteString(" \t")
		case 1:
			b.WriteString("\r\n")
		case 2:
			b.WriteString(" # comment ; (\n")
		case 3:
			if src[i] == ' ' {
				continue
			}
		case 4:
			if rng.Intn(8) == 0 {
				b.WriteByte(stray[rng.Intn(len(stray))])
			}
		}
		b.WriteByte(src[i])
	}
	return b.String()
}

// TestLexMatchesOracle: over the generators' programs, respelled and
// sometimes broken, Lex returns the oracle's tokens, or its error.
func TestLexMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	errs := 0
	for trial := 0; trial < 4000; trial++ {
		var src string
		if trial%3 == 2 {
			src = rules.Canonical(rules.RandSparseProgram(rng, 1+rng.Intn(6)))
		} else {
			src = rules.Canonical(rules.RandProgram(rng, 12))
		}
		if trial%2 == 1 {
			src = respell(rng, src)
		}
		got, gotErr := lang.Lex(src)
		want, wantErr := lexOracle(src)
		if !reflect.DeepEqual(got, want) || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Fatalf("Lex(%q) = %v, %v\nwant %v, %v", src, got, gotErr, want, wantErr)
		}
		if wantErr != nil {
			errs++
		}
	}
	if errs == 0 {
		t.Fatal("no source failed to lex: the corpus misses the error path")
	}
}
