package serve

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"repro/internal/rules"
)

// The daemon reads and writes its JSON itself, without reflection: a
// request body is read by decodeRequest and every answer is rendered by a
// jsonWriter. Both are held, byte for byte, to encoding/json — the
// decoder to a json.Decoder filling a Request, the writer to a
// json.Encoder with SetIndent("", "  ") — by the package's tests and
// fuzz targets.

// maxDepth is encoding/json's nesting limit: a body whose objects and
// arrays nest deeper is refused.
const maxDepth = 10000

var (
	errEnd   = errors.New("unexpected end of JSON input")
	errDepth = fmt.Errorf("objects and arrays nest deeper than %d levels", maxDepth)
)

// requestFields are Request's JSON names as encoding/json folds them, in
// field order (the indices below).
var requestFields = [...]string{"PROGRAM", "TS", "TW", "P", "M", "STRATEGY", "SELECT"}

const (
	fieldProgram = iota
	fieldTs
	fieldTw
	fieldP
	fieldM
	fieldStrategy
	fieldSelect
)

// reqDecoder is one pass over a request body; i is the next byte.
type reqDecoder struct {
	b []byte
	i int
}

// decodeRequest reads the first JSON value of body into req as a
// json.Decoder did and returns the offset just past it. The whole value
// is validated — grammar, escapes, no raw control character in a string,
// at most maxDepth levels — and only an object or null is a request. A
// key names a field exactly or under encoding/json's case folding, the
// last of duplicate keys wins, null leaves a field as it was (ts and tw
// it unsets), an unknown field's value is only validated, p and m must
// be integers that fit an int, ts and tw numbers in a float64's range.
// A program literal without escapes is a view of body, valid while body
// is (lang.ParseStages keeps no byte of its source); one with escapes is a
// copy. Only ts and tw allocate, one each.
func decodeRequest(body []byte, req *Request) (end int, err error) {
	d := reqDecoder{b: body}
	switch c, err := d.next(); {
	case err != nil:
		return d.i, err
	case c == 'n':
		return d.i, d.literal("null")
	case c != '{':
		return d.i, errors.New("the body is not a JSON object")
	}
	return d.i, d.walk(req)
}

// walk validates the value at d.i and moves past it; the members of the
// outermost object fill req. The open containers are kept in a slice, not
// in call frames, so a deep value costs no stack.
func (d *reqDecoder) walk(req *Request) error {
	var stack [64]byte
	open := stack[:0] // the closing byte of each container not yet closed
	f := -1           // the field of req the value at d.i fills
	for {
		c, err := d.next()
		if err != nil {
			return err
		}
		switch {
		case f >= 0:
			err = d.field(req, f, c)
		case c == '{' || c == '[':
			if len(open) == maxDepth {
				return errDepth
			}
			d.i++
			closer := c + 2 // '}' or ']'
			if c, err = d.next(); err != nil {
				return err
			}
			if c != closer {
				open = append(open, closer)
				if closer == '}' {
					f, err = d.key(len(open))
				}
				if err != nil {
					return err
				}
				continue
			}
			d.i++
		case c == '"':
			_, _, err = d.str()
		case c == 't':
			err = d.literal("true")
		case c == 'f':
			err = d.literal("false")
		case c == 'n':
			err = d.literal("null")
		default:
			_, err = d.number()
		}
		if err != nil {
			return err
		}
		// After a value: close what it ends, or go on to the next member.
		for f = -1; ; {
			if len(open) == 0 {
				return nil
			}
			if c, err = d.next(); err != nil {
				return err
			}
			closer := open[len(open)-1]
			if c == closer {
				d.i++
				open = open[:len(open)-1]
				continue
			}
			if c != ',' {
				return d.syntax()
			}
			d.i++
			if closer == '}' {
				if f, err = d.key(len(open)); err != nil {
					return err
				}
			}
			break
		}
	}
}

// key reads an object key at the given level and the colon after it, and
// returns the field of req it names at the first level, else -1.
func (d *reqDecoder) key(level int) (int, error) {
	c, err := d.next()
	if err != nil {
		return -1, err
	}
	if c != '"' {
		return -1, d.syntax()
	}
	s, _, err := d.str()
	if err != nil {
		return -1, err
	}
	if c, err = d.next(); err != nil {
		return -1, err
	}
	if c != ':' {
		return -1, d.syntax()
	}
	d.i++
	if level > 1 {
		return -1, nil
	}
	return matchField(s), nil
}

// field reads the value at d.i, which starts with c, into the field f of
// req.
func (d *reqDecoder) field(req *Request, f int, c byte) error {
	if c == 'n' {
		if f == fieldTs {
			req.Ts = nil
		} else if f == fieldTw {
			req.Tw = nil
		}
		return d.literal("null")
	}
	switch f {
	case fieldProgram, fieldStrategy:
		if c != '"' {
			return typeError(f, "a string")
		}
		s, esc, err := d.str()
		if err != nil {
			return err
		}
		switch {
		case f == fieldStrategy:
			req.Strategy = strategyOf(s, esc)
		case !esc && len(s) > 0:
			// A view of the body: a copy allocated 1.0 more a plan-miss request
			// and no timed row lost; it is kept for the allocation budget
			// (docs/PERF.md "What each planner mechanism buys").
			req.Program = unsafe.String(&s[0], len(s))
		default:
			req.Program = unquote(s, esc)
		}
	case fieldSelect:
		if c != 't' && c != 'f' {
			return typeError(f, "a boolean")
		}
		if req.Select = c == 't'; req.Select {
			return d.literal("true")
		}
		return d.literal("false")
	default:
		if c != '-' && (c < '0' || c > '9') {
			return typeError(f, "a number")
		}
		num, err := d.number()
		if err != nil {
			return err
		}
		if f == fieldP || f == fieldM {
			n, err := strconv.ParseInt(string(num), 10, 0)
			if err != nil {
				return typeError(f, "an integer that fits an int")
			}
			if f == fieldP {
				req.P = int(n)
			} else {
				req.M = int(n)
			}
			return nil
		}
		x, err := strconv.ParseFloat(string(num), 64)
		if err != nil {
			return typeError(f, "a number in a float64's range")
		}
		p := &req.Ts
		if f == fieldTw {
			p = &req.Tw
		}
		if *p == nil {
			*p = new(float64)
		}
		**p = x
	}
	return nil
}

func typeError(f int, want string) error {
	return fmt.Errorf("%s is not %s", strings.ToLower(requestFields[f]), want)
}

// strategyOf is the strategy a request names, without allocating for the
// two there are.
func strategyOf(s []byte, esc bool) string {
	if !esc {
		switch string(s) {
		case string(StrategyGreedy):
			return string(StrategyGreedy)
		case string(StrategySearch):
			return string(StrategySearch)
		}
	}
	return unquote(s, esc)
}

// next skips white space and returns the byte at d.i.
func (d *reqDecoder) next() (byte, error) {
	for ; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; c {
		case ' ', '\t', '\r', '\n':
		default:
			return c, nil
		}
	}
	return 0, errEnd
}

// syntax is the error for the byte at d.i.
func (d *reqDecoder) syntax() error {
	if d.i >= len(d.b) {
		return errEnd
	}
	return fmt.Errorf("invalid character %q at offset %d", d.b[d.i:d.i+1], d.i)
}

// literal reads the literal word at d.i.
func (d *reqDecoder) literal(word string) error {
	for k := 0; k < len(word); k, d.i = k+1, d.i+1 {
		if d.i >= len(d.b) || d.b[d.i] != word[k] {
			return d.syntax()
		}
	}
	return nil
}

// number reads a number at d.i by JSON's grammar and returns its text.
func (d *reqDecoder) number() ([]byte, error) {
	b, start := d.b, d.i
	digits := func() bool {
		k := d.i
		for d.i < len(b) && '0' <= b[d.i] && b[d.i] <= '9' {
			d.i++
		}
		return d.i > k
	}
	if b[d.i] == '-' {
		d.i++
	}
	switch {
	case d.i < len(b) && b[d.i] == '0':
		d.i++
	case d.i < len(b) && '1' <= b[d.i] && b[d.i] <= '9':
		digits()
	default:
		return nil, d.syntax()
	}
	if d.i < len(b) && b[d.i] == '.' {
		d.i++
		if !digits() {
			return nil, d.syntax()
		}
	}
	if d.i < len(b) && (b[d.i] == 'e' || b[d.i] == 'E') {
		d.i++
		if d.i < len(b) && (b[d.i] == '+' || b[d.i] == '-') {
			d.i++
		}
		if !digits() {
			return nil, d.syntax()
		}
	}
	return b[start:d.i], nil
}

// str reads the string literal at d.i as encoding/json's scanner accepts
// it and returns what is between its quotes, and whether that needs
// unquote: an escape, or a byte that is not valid UTF-8.
func (d *reqDecoder) str() (s []byte, esc bool, err error) {
	b := d.b
	start, high := d.i+1, false
	for d.i = start; d.i < len(b); {
		switch c := b[d.i]; {
		case c == '"':
			s = b[start:d.i]
			d.i++
			return s, esc || high && !utf8.Valid(s), nil
		case c == '\\':
			esc = true
			d.i++
			if d.i >= len(b) {
				return nil, false, errEnd
			}
			switch b[d.i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i++
			case 'u':
				for k := 0; k < 4; k++ {
					if d.i++; d.i >= len(b) {
						return nil, false, errEnd
					}
					if unhex(b[d.i]) < 0 {
						return nil, false, d.syntax()
					}
				}
				d.i++
			default:
				return nil, false, d.syntax()
			}
		case c < ' ':
			return nil, false, d.syntax()
		default:
			high = high || c >= utf8.RuneSelf
			d.i++
		}
	}
	return nil, false, errEnd
}

// unhex is the value of a hexadecimal digit, or -1.
func unhex(c byte) rune {
	if c < '0' {
		return -1
	}
	return rune(strings.IndexByte(hexDigits, c|0x20))
}

// nextRune decodes the rune at s[i:] of a validated string's contents as
// encoding/json unquotes it, and says how many bytes it took: an escape
// resolved, a surrogate pair joined, a lone surrogate or a byte that is
// not valid UTF-8 read as U+FFFD.
func nextRune(s []byte, i int) (rune, int) {
	c := s[i]
	if c >= utf8.RuneSelf {
		return utf8.DecodeRune(s[i:])
	}
	if c != '\\' {
		return rune(c), 1
	}
	if c = s[i+1]; c != 'u' {
		if k := strings.IndexByte("bfnrt", c); k >= 0 {
			return rune("\b\f\n\r\t"[k]), 2
		}
		return rune(c), 2
	}
	u4 := func(k int) rune {
		return unhex(s[k])<<12 | unhex(s[k+1])<<8 | unhex(s[k+2])<<4 | unhex(s[k+3])
	}
	r := u4(i + 2)
	if !utf16.IsSurrogate(r) {
		return r, 6
	}
	if i+12 <= len(s) && s[i+6] == '\\' && s[i+7] == 'u' {
		if pair := utf16.DecodeRune(r, u4(i+8)); pair != unicode.ReplacementChar {
			return pair, 12
		}
	}
	return unicode.ReplacementChar, 6
}

// unquote is the string a validated literal's contents stand for.
func unquote(s []byte, esc bool) string {
	if !esc {
		return string(s)
	}
	var out strings.Builder
	out.Grow(len(s))
	for i := 0; i < len(s); {
		r, n := nextRune(s, i)
		out.WriteRune(r)
		i += n
	}
	return out.String()
}

// matchField is the index in requestFields of the field a key (a string
// literal's contents) names, or -1. encoding/json matches a key exactly
// first and then under foldName; Request's names differ under folding, so
// the fold alone decides.
func matchField(key []byte) int {
next:
	for f, name := range requestFields {
		j := 0
		for i := 0; i < len(key); j++ {
			r, n := nextRune(key, i)
			i += n
			if r < utf8.RuneSelf {
				if 'a' <= r && r <= 'z' {
					r -= 'a' - 'A'
				}
			} else {
				r = foldRune(r)
			}
			if j == len(name) || r != rune(name[j]) {
				continue next
			}
		}
		if j == len(name) {
			return f
		}
	}
	return -1
}

// foldRune is encoding/json's: the smallest rune of r's fold set, so that
// ſ folds to S and the Kelvin sign to K.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// jsonWriter renders the daemon's bodies as a json.Encoder with
// SetIndent("", "  ") rendered them — HTML-escaped strings, ES6 floats,
// the omitempty fields left out — appending to a buffer kept between
// bodies (writerPool).
type jsonWriter struct {
	b     []byte
	depth int
	// empty: the innermost object or array has no member yet.
	empty bool
	// bad: a float JSON cannot hold was rendered, so the body is nothing,
	// as Marshal refused such a value.
	bad bool
}

var writerPool = sync.Pool{New: func() any { return new(jsonWriter) }}

func getWriter() *jsonWriter {
	jw := writerPool.Get().(*jsonWriter)
	jw.b, jw.depth, jw.empty, jw.bad = jw.b[:0], 0, false, false
	return jw
}

// free returns jw to the pool unless its buffer grew past maxPooledBody.
func (jw *jsonWriter) free() {
	if cap(jw.b) <= maxPooledBody {
		writerPool.Put(jw)
	}
}

// bytes is the rendered body.
func (jw *jsonWriter) bytes() []byte {
	if jw.bad {
		return nil
	}
	return jw.b
}

// send answers code with the rendered body and frees jw.
func (jw *jsonWriter) send(w http.ResponseWriter, code int) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(code)
	if b := jw.bytes(); b != nil {
		w.Write(b)
	}
	jw.free()
}

func (jw *jsonWriter) open(c byte) {
	jw.b = append(jw.b, c)
	jw.depth++
	jw.empty = true
}

// close ends the innermost object or array; the outermost ends the body
// with the newline an Encoder writes.
func (jw *jsonWriter) close(c byte) {
	jw.depth--
	if !jw.empty {
		jw.newline()
	}
	jw.b = append(jw.b, c)
	jw.empty = false
	if jw.depth == 0 {
		jw.b = append(jw.b, '\n')
	}
}

// elem starts a member of the innermost container.
func (jw *jsonWriter) elem() {
	if !jw.empty {
		jw.b = append(jw.b, ',')
	}
	jw.empty = false
	jw.newline()
}

func (jw *jsonWriter) newline() {
	jw.b = append(jw.b, '\n')
	for i := 0; i < jw.depth; i++ {
		jw.b = append(jw.b, ' ', ' ')
	}
}

// key starts an object member; name needs no escaping.
func (jw *jsonWriter) key(name string) {
	jw.elem()
	jw.b = append(jw.b, '"')
	jw.b = append(jw.b, name...)
	jw.b = append(jw.b, '"', ':', ' ')
}

func (jw *jsonWriter) str(name, s string) {
	jw.key(name)
	jw.b = appendString(jw.b, s)
}

func (jw *jsonWriter) int(name string, n int64) {
	jw.key(name)
	jw.b = strconv.AppendInt(jw.b, n, 10)
}

func (jw *jsonWriter) uint(name string, n uint64) {
	jw.key(name)
	jw.b = strconv.AppendUint(jw.b, n, 10)
}

func (jw *jsonWriter) bool(name string, v bool) {
	jw.key(name)
	jw.b = strconv.AppendBool(jw.b, v)
}

// float renders f as encoding/json does: 'f' notation, 'e' below 1e-6
// and from 1e21 on with a one-digit negative exponent unpadded.
func (jw *jsonWriter) float(name string, f float64) {
	jw.key(name)
	if math.IsInf(f, 0) || math.IsNaN(f) {
		jw.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	jw.b = strconv.AppendFloat(jw.b, f, format, -1, 64)
	if n := len(jw.b); format == 'e' && jw.b[n-4] == 'e' && jw.b[n-3] == '-' && jw.b[n-2] == '0' {
		jw.b[n-2] = jw.b[n-1]
		jw.b = jw.b[:n-1]
	}
}

// response renders a successful /optimize answer.
func (jw *jsonWriter) response(r *Response) {
	p := &r.Plan
	jw.open('{')
	jw.str("canonical", p.Canonical)
	jw.str("optimized", p.Optimized)
	if len(p.Applications) > 0 {
		jw.key("applications")
		jw.open('[')
		for _, a := range p.Applications {
			jw.elem()
			jw.b = appendString(jw.b, a)
		}
		jw.close(']')
	}
	jw.float("cost_before", p.CostBefore)
	jw.float("cost_after", p.CostAfter)
	jw.bool("verified", p.Verified)
	jw.str("strategy", string(p.Strategy))
	if s := p.Search; s != nil {
		jw.key("search")
		jw.search(s)
	}
	if len(p.Selection) > 0 {
		jw.key("selection")
		jw.open('[')
		for _, s := range p.Selection {
			jw.elem()
			jw.open('{')
			jw.int("stage", int64(s.Stage))
			jw.str("collective", s.Collective)
			jw.str("algo", string(s.Algo))
			if s.Segments != 0 {
				jw.int("segments", int64(s.Segments))
			}
			jw.int("m", int64(s.M))
			jw.float("predicted", s.Predicted)
			jw.float("butterfly", s.Butterfly)
			jw.close('}')
		}
		jw.close(']')
	}
	jw.bool("cached", r.Cached)
	m := r.Machine
	jw.key("machine")
	jw.open('{')
	jw.float("Ts", m.Ts)
	jw.float("Tw", m.Tw)
	jw.int("P", int64(m.P))
	jw.int("M", int64(m.M))
	jw.close('}')
	jw.close('}')
}

func (jw *jsonWriter) search(s *rules.SearchStats) {
	jw.open('{')
	jw.int("nodes", int64(s.Nodes))
	jw.int("memo_hits", int64(s.MemoHits))
	jw.int("pruned", int64(s.Pruned))
	jw.bool("exhausted", s.Exhausted)
	jw.float("greedy_cost", s.GreedyCost)
	jw.float("best_cost", s.BestCost)
	jw.close('}')
}

// snapshot renders the /metrics document.
func (jw *jsonWriter) snapshot(s *Snapshot) {
	jw.open('{')
	jw.float("uptime_s", s.UptimeSeconds)
	jw.uint("requests", s.Requests)
	jw.uint("optimized", s.Optimized)
	jw.uint("errors", s.Errors)
	jw.int("in_flight", s.InFlight)
	jw.int("engine_runs", s.EngineRuns)
	v := &s.Verify
	jw.key("verify")
	jw.open('{')
	jw.uint("derivations", v.Derivations)
	jw.uint("zero_application", v.ZeroApplication)
	jw.uint("instance_checks", v.InstanceChecks)
	jw.uint("instance_hits", v.InstanceHits)
	jw.uint("tails_once", v.TailsOnce)
	jw.uint("tails_twice", v.TailsTwice)
	jw.uint("packed", v.Packed)
	jw.uint("per_input", v.PerInput)
	jw.close('}')
	c := &s.Cache
	jw.key("cache")
	jw.open('{')
	jw.uint("hits", c.Hits)
	jw.uint("misses", c.Misses)
	jw.uint("coalesced", c.Coalesced)
	jw.uint("evictions", c.Evictions)
	jw.int("size", int64(c.Size))
	jw.int("capacity", int64(c.Capacity))
	jw.int("shards", int64(c.Shards))
	jw.uint("by_body", c.ByBody)
	jw.int("bodies", int64(c.Bodies))
	jw.close('}')
	jw.close('}')
}

// health renders /healthz, the map's keys in Marshal's sorted order.
func (jw *jsonWriter) health(inFlight int64, uptime float64) {
	jw.open('{')
	jw.int("in_flight", inFlight)
	jw.str("status", "ok")
	jw.float("uptime_s", uptime)
	jw.close('}')
}

// errorBody renders {"error": msg}.
func (jw *jsonWriter) errorBody(msg string) {
	jw.open('{')
	jw.str("error", msg)
	jw.close('}')
}

// htmlSafe reports the ASCII bytes a string carries unescaped: not a
// control character, a quote, a backslash or one of <, > and &.
var htmlSafe = func() (t [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, c)
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendString appends s quoted as encoding/json quotes with HTML
// escaping: \b \f \n \r \t, \" and \\ short, the other control characters
// and <, > and & as \u00xx, a byte that is not valid UTF-8 as \ufffd, and
// U+2028 and U+2029 escaped.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			if k := strings.IndexByte("\\\"\b\f\n\r\t", c); k >= 0 {
				b = append(b, '\\', "\\\"bfnrt"[k])
			} else {
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
