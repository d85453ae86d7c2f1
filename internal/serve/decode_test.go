package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// oracleDecode is handleOptimize's decode path before decodeRequest,
// verbatim: a json.Decoder over the body, and any byte but white space
// after the value it ends at (InputOffset) refused. It reports the decoded
// request, the Decoder's error and whether bytes trail the value.
func oracleDecode(body []byte) (req Request, err error, trailing bool) {
	var rd bytes.Reader
	rd.Reset(body)
	dec := json.NewDecoder(&rd)
	if err := dec.Decode(&req); err != nil {
		return req, err, false
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return req, nil, true
	}
	return req, nil, false
}

// sameRequest compares two requests, their pointer fields by value.
func sameRequest(a, b Request) bool {
	sameFloat := func(x, y *float64) bool {
		return x == nil && y == nil || x != nil && y != nil && math.Float64bits(*x) == math.Float64bits(*y)
	}
	return a.Program == b.Program && a.P == b.P && a.M == b.M && a.Strategy == b.Strategy && a.Select == b.Select &&
		sameFloat(a.Ts, b.Ts) && sameFloat(a.Tw, b.Tw)
}

func showRequest(r Request) string {
	show := func(p *float64) string {
		if p == nil {
			return "nil"
		}
		return fmt.Sprint(*p)
	}
	return fmt.Sprintf("{Program:%q Ts:%s Tw:%s P:%d M:%d Strategy:%q Select:%t}", r.Program, show(r.Ts), show(r.Tw), r.P, r.M, r.Strategy, r.Select)
}

// checkDecode holds decodeRequest to the oracle on one body: both refuse
// it, or both accept it with the same request and the same verdict on the
// bytes after it.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	want, wantErr, wantTrailing := oracleDecode(body)
	var got Request
	end, err := decodeRequest(body, &got)
	switch {
	case (err != nil) != (wantErr != nil):
		t.Fatalf("body %q: decodeRequest error %v, the Decoder's %v", body, err, wantErr)
	case err != nil:
	case !sameRequest(got, want):
		t.Fatalf("body %q: decoded %s, the Decoder %s", body, showRequest(got), showRequest(want))
	case (len(bytes.TrimLeft(body[end:], " \t\r\n")) > 0) != wantTrailing:
		t.Fatalf("body %q: the value ends at %d, trailing bytes %t, want %t", body, end, !wantTrailing, wantTrailing)
	}
}

// decodeEdges are hand-written bodies at the edges of the decoder's
// contract.
var decodeEdges = []string{
	`{"PROGRAM":"scan(+)","Strategy":"search","SELECT":true,"Ts":1,"tW":2,"P":3,"m":4}`,
	`{"program":"scan(+)","strategy":"greedy","Select":false}`,
	`{"ſtrategy":"search","ſelect":true,"program":"ſ"}`,
	`{"ſtrategy":"search","K":1,"k":2,"K":3}`,
	`{"program":"a","program":"b","p":1,"p":2,"ts":1,"ts":2,"strategy":"greedy","strategy":"search"}`,
	`{"program":"a","program":null,"ts":1,"ts":null,"tw":null,"p":5,"p":null,"m":null,"strategy":"search","strategy":null,"select":true,"select":null}`,
	`{"program":"\ud800"}`, `{"program":"\ud800\ud800"}`, `{"program":"\ud83d\ude00"}`, `{"program":"\udc00\ud800x"}`,
	`{"program":"\ud800A"}`, `{"program":"\ud800\\u0041"}`, `{"program":"𐈀\ude00"}`,
	"{\"program\":\"\xff\xfe\xed\xa0\x80\xc3\"}", "{\"program\":\"oké\u2028\"}", "{\"\xffprogram\":1}",
	"{\"program\":\"a\x00b\"}", "{\"program\":\"tab\tin\"}", `{"program":"\"\\\/\b\f\n\r\t\u0000\u001F"}`,
	`{"program":"\x41"}`, `{"program":"\'"}`, `{"program":"\u12"}`, `{"program":"\uZZZZ"}`,
	`{"p":-0,"m":-0,"ts":-0,"tw":-0.0}`, `{"ts":1e400}`, `{"ts":-1e400}`, `{"ts":1e-400}`, `{"tw":4.9e-324}`,
	`{"p":9223372036854775807}`, `{"p":9223372036854775808}`, `{"m":-9223372036854775808}`, `{"m":-9223372036854775809}`,
	`{"p":3.0}`, `{"p":1e2}`, `{"p":-1}`, `{"p":01}`, `{"p":-}`, `{"p":1.}`, `{"p":.5}`, `{"p":1e}`, `{"p":+1}`, `{"ts":1E+2}`,
	`{"p":"3"}`, `{"program":3}`, `{"program":true}`, `{"program":{}}`, `{"program":[]}`, `{"select":1}`, `{"select":"true"}`,
	`{"ts":"1"}`, `{"ts":{}}`, `{"strategy":[]}`, `{"select":nul}`, `{"select":tru}`, `{"select":falsey}`,
	`{"x":[1,{"a":[true,false,null,"s",-1.5e3,{}]},[]],"program":"scan(+)"}`, `{"x":{"y":{"z":[[[]]]}},"p":2}`,
	`{"x":[1,]}`, `{"x":[,1]}`, `{"x":{"a"}}`, `{"x":{"a":1,}}`, `{"x":{1:2}}`, `{"x":[1 2]}`, `{"x":"\q"}`,
	`{}`, `{ }`, " \t\r\n{\"program\" : \"a\" , \"p\" : 2 }\n ", `{,}`, `{"program":"a",}`, `{"program""a"}`, `{"program":}`,
	`null`, ` null `, `nul`, `nullx`, `null}`, `[]`, `[{"program":"a"}]`, `"program"`, `3`, `-0`, `true`, `false`,
	``, ` `, `{`, `{"program"`, `{"program":"a"`, `{"program":"a`, `}`, `{"a":1}}`, `{"a":1} {"b":2}`, `{"a":1}x`,
	"\xef\xbb\xbf{}", `{"program":"bcast ; scan(+)","p":64,"m":64} x`,
}

// FuzzDecodeRequest: for any body, decodeRequest and the json.Decoder
// path it replaced agree on refusing it or on the request it holds and
// the bytes after it.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range goldenRequests() {
		f.Add([]byte(body))
	}
	for _, body := range decodeEdges {
		f.Add([]byte(body))
	}
	f.Fuzz(checkDecode)
}

// TestHostileBodies: a body built to exhaust the decoder — deep nesting
// under an unknown key, chains of objects, a string of lone surrogates, a
// number of a million digits — gets the status the Decoder's path gave it
// within a second, and the decoder refuses what the Decoder refused.
func TestHostileBodies(t *testing.T) {
	const size = maxRequestBytes - 64
	nested := func(open, mid, close string, n int) string {
		return `{"program":"scan(+)","x":` + strings.Repeat(open, n) + mid + strings.Repeat(close, n) + `}`
	}
	for _, tc := range []struct {
		name string
		body string
		code int
	}{
		{"nearly 1 MiB of [", `{"program":"scan(+)","x":` + strings.Repeat("[", size), 400},
		{"10 000 levels", nested("[", "", "]", maxDepth-1), 200},
		{"10 001 levels", nested("[", "", "]", maxDepth), 400},
		{"10 000 levels of objects", nested(`{"a":`, "1", "}", maxDepth-1), 200},
		{"10 001 levels of objects", nested(`{"a":`, "1", "}", maxDepth), 400},
		{"1 MiB of {\"a\": chains", strings.Repeat(`{"a":`, size/5), 400},
		{"1 MiB of lone surrogates", `{"program":"` + strings.Repeat(`\ud800`, size/6) + `"}`, 400},
		{"1 MiB of surrogate pairs under an unknown key", `{"program":"scan(+)","x":"` + strings.Repeat(`\ud83d\ude00`, size/12) + `"}`, 200},
		{"a 1 MiB integer", `{"program":"scan(+)","p":` + strings.Repeat("7", size) + `}`, 400},
		{"a 1 MiB float", `{"program":"scan(+)","ts":0.` + strings.Repeat("0", size) + `1}`, 200},
		{"a 1 MiB number under an unknown key", `{"program":"scan(+)","x":-` + strings.Repeat("9", size) + `e-9}`, 200},
		{"p = MaxInt64, selected", `{"program":"reduce(+)","p":9223372036854775807,"select":true}`, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if len(tc.body) > maxRequestBytes {
				t.Fatalf("%d bytes, more than the daemon reads", len(tc.body))
			}
			_, wantErr, _ := oracleDecode([]byte(tc.body))
			s := New(Config{})
			w := httptest.NewRecorder()
			start := time.Now()
			s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/optimize", strings.NewReader(tc.body)))
			took := time.Since(start)
			msg := w.Body.String()
			if w.Code != tc.code {
				t.Fatalf("HTTP %d, want %d: %.200s", w.Code, tc.code, msg)
			}
			if refused := strings.Contains(msg, "bad request body"); refused != (wantErr != nil) {
				t.Fatalf("refused as a body: %t, the Decoder's error: %v (%.200s)", refused, wantErr, msg)
			}
			if took > time.Second {
				t.Errorf("answered in %v, want ≤ 1 s", took)
			}
		})
	}
}

// TestDecodeRequestAllocs: a plan-miss pool body decodes without
// allocating, its program a view of the body, and a body with ts and tw
// with two; the json.Decoder path it replaced measured 9 for the first, and
// the parent of the view 1 and 3 (the program's copy).
func TestDecodeRequestAllocs(t *testing.T) {
	pool := missPool(1, 500)
	for _, tc := range []struct {
		opts string
		want float64
	}{
		{`,"p":64,"m":64,"strategy":"search","select":true`, 0},
		{`,"ts":1000,"tw":1.5,"p":64,"m":64,"strategy":"search","select":true`, 2},
	} {
		bodies := make([][]byte, len(pool))
		for i, src := range pool {
			bodies[i] = []byte(requestBody(src, tc.opts))
		}
		i := 0
		allocs := testing.AllocsPerRun(len(bodies), func() {
			var req Request
			if _, err := decodeRequest(bodies[i%len(bodies)], &req); err != nil || req.Strategy != "search" {
				t.Fatalf("%s: %v", bodies[i%len(bodies)], err)
			}
			i++
		})
		if allocs != tc.want && !raceEnabled {
			t.Errorf("decoding %s allocates %.1f times, want %.0f", bodies[0], allocs, tc.want)
		}
	}
}

// BenchmarkDecodeRequest decodes plan-miss pool bodies, with
// decodeRequest and with the json.Decoder path.
func BenchmarkDecodeRequest(b *testing.B) {
	var bodies [][]byte
	for _, src := range missPool(1, 400) {
		bodies = append(bodies, []byte(requestBody(src, `,"p":64,"m":64,"strategy":"search","select":true`)))
	}
	b.Run("decoder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req Request
			decodeRequest(bodies[i%len(bodies)], &req)
		}
	})
	b.Run("json.Decoder", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oracleDecode(bodies[i%len(bodies)])
		}
	})
}

// TestNoReflectionOutsideTests: encoding/json is the tests' oracle only; no
// file the daemon is built from imports it.
func TestNoReflectionOutsideTests(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range f.Imports {
			if path, _ := strconv.Unquote(imp.Path.Value); path == "encoding/json" {
				t.Errorf("%s imports encoding/json", name)
			}
		}
	}
}
