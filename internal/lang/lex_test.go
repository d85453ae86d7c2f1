package lang_test

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unicode"

	"repro/internal/lang"
	"repro/internal/rules"
	"repro/internal/term"
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
// between the tokens, and now and then a stray ASCII character (the
// oracle reads a byte as a rune; TestLexUTF8 covers the others).
func respell(rng *rand.Rand, src string) string {
	const stray = "@!${}7_"
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

// TestLexUTF8: a source is UTF-8. A letter of any script starts or
// continues an identifier, any other character is refused by name, a byte
// that is not UTF-8 is refused as a byte, and columns count characters.
func TestLexUTF8(t *testing.T) {
	for _, c := range []struct {
		src string
		// toks lists kind, text and column of each token before TokEOF;
		// err is the error, if any.
		toks []lang.Token
		err  string
	}{
		{src: "ñ", toks: []lang.Token{{Kind: lang.TokIdent, Text: "ñ", Col: 1}}},
		{src: "scan(+) ; mäp inc", toks: []lang.Token{
			{Kind: lang.TokIdent, Text: "scan", Col: 1}, {Kind: lang.TokLParen, Text: "(", Col: 5},
			{Kind: lang.TokOp, Text: "+", Col: 6}, {Kind: lang.TokRParen, Text: ")", Col: 7},
			{Kind: lang.TokSemi, Text: ";", Col: 9}, {Kind: lang.TokIdent, Text: "mäp", Col: 11},
			{Kind: lang.TokIdent, Text: "inc", Col: 15},
		}},
		{src: "scan(+) ; π", toks: []lang.Token{
			{Kind: lang.TokIdent, Text: "scan", Col: 1}, {Kind: lang.TokLParen, Text: "(", Col: 5},
			{Kind: lang.TokOp, Text: "+", Col: 6}, {Kind: lang.TokRParen, Text: ")", Col: 7},
			{Kind: lang.TokSemi, Text: ";", Col: 9}, {Kind: lang.TokIdent, Text: "π", Col: 11},
		}},
		{src: "map x٣", toks: []lang.Token{{Kind: lang.TokIdent, Text: "map", Col: 1}, {Kind: lang.TokIdent, Text: "x٣", Col: 5}}},
		{src: "allgatherv(٣)", err: "1:12: unexpected character '٣'"}, // a number is ASCII digits
		{src: "π₁", err: "1:2: unexpected character '₁'"},             // a subscript is no letter or digit
		{src: "bcast ;\u00a0scan(+)", err: "1:8: unexpected character '\\u00a0'"},
		{src: "scan(+) ;\u2028bcast", err: "1:10: unexpected character '\\u2028'"},
		{src: "sc\xc3an(+)", err: "1:3: unexpected byte 0xc3 (not UTF-8)"},
		{src: "ñ ; \xe2\x80", err: "1:5: unexpected byte 0xe2 (not UTF-8)"},
		{src: "map π"[:len("map π")-1], err: "1:5: unexpected byte 0xcf (not UTF-8)"},
		{src: "map ñ # ñ \xff\n;", toks: []lang.Token{
			{Kind: lang.TokIdent, Text: "map", Col: 1}, {Kind: lang.TokIdent, Text: "ñ", Col: 5},
			{Kind: lang.TokSemi, Text: ";", Line: 2, Col: 1},
		}},
	} {
		toks, err := lang.Lex(c.src)
		if c.err != "" {
			if err == nil || err.Error() != c.err {
				t.Errorf("Lex(%q): error %v, want %s", c.src, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("Lex(%q): %v", c.src, err)
			continue
		}
		if len(toks) != len(c.toks)+1 || toks[len(toks)-1].Kind != lang.TokEOF || toks[len(toks)-1].Pos != len(c.src) {
			t.Errorf("Lex(%q) = %v, want %d tokens and end of input at byte %d", c.src, toks, len(c.toks), len(c.src))
			continue
		}
		for i, want := range c.toks {
			if want.Line == 0 {
				want.Line = 1
			}
			got := toks[i]
			if got.Kind != want.Kind || got.Text != want.Text || got.Line != want.Line || got.Col != want.Col || c.src[got.Pos:got.Pos+len(got.Text)] != got.Text {
				t.Errorf("Lex(%q) token %d = %+v, want %+v", c.src, i, got, want)
			}
		}
	}
	// An identifier in another script is a name the parser does not know,
	// not a character the lexer refuses.
	_, err := lang.Parse("scan(+) ; mäp inc", lang.NewSymbols())
	if want := `1:11: unknown stage "mäp"`; err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("Parse: %v, want %s…", err, want)
	}
}

// TestParseStagesBound: ParseStages counts a program's stages as its
// semicolons outside comments plus one — the TokSemi tokens Lex finds — and
// refuses one over the bound with that count, before lexing it: a program
// exactly at the bound parses as Parse parses it, one stage more is refused
// even where it would not lex.
func TestParseStagesBound(t *testing.T) {
	syms := lang.NewSymbols()
	syms.DefineFn(rules.IncFn)
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 2000; trial++ {
		src := rules.Canonical(rules.RandProgram(rng, 12))
		if trial%2 == 1 {
			src = respell(rng, src)
		}
		toks, err := lang.Lex(src)
		if err != nil {
			continue
		}
		n := 1
		for _, tok := range toks {
			if tok.Kind == lang.TokSemi {
				n++
			}
		}
		want, wantErr := lang.Parse(src, syms)
		got, gotErr := lang.ParseStages(src, syms, n)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || wantErr == nil && !term.EqualTerms(got, want) {
			t.Fatalf("ParseStages(%q, %d) = %v, %v; Parse = %v, %v", src, n, got, gotErr, want, wantErr)
		}
		var long *lang.StagesError
		if n == 1 {
			continue // a bound of 0 is none
		}
		if _, err := lang.ParseStages(src+" @", syms, n-1); !errors.As(err, &long) || long.Stages != n || long.Max != n-1 {
			t.Fatalf("ParseStages(%q, %d): %v, want a refusal of %d stages", src, n-1, err, n)
		}
	}
	if _, err := lang.ParseStages("bcast # ; ; ;\n; scan(+)", syms, 2); err != nil {
		t.Errorf("a semicolon in a comment counted as a stage: %v", err)
	}
	if _, err := lang.Parse(strings.Repeat("scan(+) ; ", 4000)+"bcast", syms); err != nil {
		t.Errorf("Parse is unbounded, yet refused 4 001 stages: %v", err)
	}
}
