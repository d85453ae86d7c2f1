package serve

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/golden"
	"repro/internal/rules"
)

// goldenRequests is the corpus of the recorded /optimize answers, each body
// listed twice so that its second answer is a hit:
//   - 600 programs drawn as bench/plan.go draws its pool (distinct under
//     rules.Canonical, at most one multiplying collective), at the
//     benchmark's machine, under greedy, search and search with selection;
//   - a sparse corpus at a four-rank machine, greedy and searched-selected;
//   - the four overflow programs, which answer 500;
//   - the ill-typed scatters and a well-typed gather ; scatter;
//   - bodies refused before planning: trailing bytes, an unknown strategy,
//     a negative p and an estimate that overflows.
func goldenRequests() []string {
	const dense = `,"p":64,"m":64`
	denseOpts := []string{dense, dense + `,"strategy":"search"`, dense + `,"strategy":"search","select":true`}
	var bodies []string
	add := func(program string, opts ...string) {
		for _, o := range opts {
			bodies = append(bodies, requestBody(program, o))
		}
	}
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	for len(seen) < 600 {
		src := rules.Canonical(rules.RandProgram(rng, 12))
		if seen[src] || strings.Count(src, "(*)") > 1 {
			continue
		}
		seen[src] = true
		add(src, denseOpts...)
	}
	sparse := []string{
		"reduce_scatterv(+,2,0,3,1) ; allgatherv(2,0,3,1)",
		"halo(-1,1) ; map inc_t ; halo(-1,1)",
	}
	for seed := int64(0); seed < 40; seed++ {
		sparse = append(sparse, rules.Canonical(rules.RandSparseProgram(rand.New(rand.NewSource(seed)), 4)))
	}
	for _, src := range sparse {
		add(src, `,"ts":4,"tw":1,"p":4,"m":2`, `,"ts":4,"tw":1,"p":4,"m":2,"strategy":"search","select":true`)
	}
	for _, src := range overflowPrograms {
		add(src, searchSelect)
	}
	for _, src := range []string{"scatter", "bcast ; scatter", "map pair ; scatter", "gather ; scatter"} {
		add(src, denseOpts...)
	}
	bodies = append(bodies,
		requestBody("bcast ; scan(+)", dense)+" x",
		requestBody("scan(+)", `,"strategy":"best"`),
		requestBody("scan(+)", `,"p":-3`),
		requestBody("scan(+)", `,"ts":1e308`),
	)
	twice := make([]string, 0, 2*len(bodies))
	for _, b := range bodies {
		twice = append(twice, b, b)
	}
	return twice
}

// TestAnswersMatchRecorded holds every /optimize answer of the corpus —
// status, Content-Type, Content-Length (-1 when chunked) and the sha256 of
// the body — to testdata/answers.golden. A change to how a plan is computed,
// keyed or rendered that moves a byte of any answer fails here; one that
// means to move them re-records the file with -update.
func TestAnswersMatchRecorded(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	var got []string
	for _, body := range goldenRequests() {
		ans := postBody(t, ts.URL, body)
		got = append(got, fmt.Sprintf("%d %s %d %x", ans.code, ans.ctype, ans.length, sha256.Sum256([]byte(ans.body))))
	}
	bodies := goldenRequests()
	golden.Check(t, "testdata/answers.golden", got, func(i int, _, _ string) bool {
		t.Logf("line %d answers %s", i+1, bodies[i])
		return false
	})
}
