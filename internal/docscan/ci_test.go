package docscan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFlagRE matches a go test -run pattern, quoted or bare.
var runFlagRE = regexp.MustCompile(`-run[ =]'?([^' ]+)'?`)

// testDecls returns the functions (not methods) of the test files of the
// package in dir.
func testDecls(t *testing.T, dir string) []*ast.FuncDecl {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var fns []*ast.FuncDecl
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					fns = append(fns, fn)
				}
			}
		}
	}
	return fns
}

// testFuncs returns the names of testDecls.
func testFuncs(t *testing.T, dir string) []string {
	var names []string
	for _, fn := range testDecls(t, dir) {
		names = append(names, fn.Name.Name)
	}
	return names
}

// TestCIRunPatternsSelectTests: every alternative of a -run pattern in
// CI's workflow must select a Test, Fuzz or Example function in the
// packages its go test names — go test passes silently when none
// matches, so a renamed test would otherwise drop out of its step
// unnoticed. Steps that run benchmarks or a fuzzer use -run only to keep
// the tests quiet and are skipped.
func TestCIRunPatternsSelectTests(t *testing.T) {
	const root = "../.."
	doc, err := ReadFile(root + "/.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, line := range strings.Split(doc, "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		run := runFlagRE.FindStringSubmatch(cmd)
		if !ok || run == nil || strings.Contains(cmd, "-bench") || strings.Contains(cmd, "-fuzz") {
			continue
		}
		var funcs []string
		for _, arg := range strings.Fields(cmd) {
			if strings.HasPrefix(arg, "./") {
				funcs = append(funcs, testFuncs(t, filepath.Join(root, arg))...)
			}
		}
		for _, alt := range strings.Split(run[1], "|") {
			top, _, _ := strings.Cut(alt, "/")
			re, err := regexp.Compile(top)
			if err != nil {
				t.Fatalf("ci.yml: %q: %v", alt, err)
			}
			found := false
			for _, name := range funcs {
				if re.MatchString(name) && (strings.HasPrefix(name, "Test") || strings.HasPrefix(name, "Fuzz") || strings.HasPrefix(name, "Example")) {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("ci.yml: -run alternative %q selects no test in %s", alt, strings.TrimSpace(line))
			}
			checked++
		}
	}
	if checked < 50 {
		t.Fatalf("checked only %d -run alternatives; is the workflow parsed?", checked)
	}
}

// raceSkipped returns the Test functions of the package in dir that skip
// under the race detector, wholly or in part: those with an if whose
// condition is raceEnabled, or an || or && of it, and whose body skips or
// returns.
func raceSkipped(t *testing.T, dir string) []string {
	t.Helper()
	var onRace func(ast.Expr) bool
	onRace = func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			return x.Name == "raceEnabled"
		case *ast.BinaryExpr:
			return (x.Op == token.LOR || x.Op == token.LAND) && (onRace(x.X) || onRace(x.Y))
		}
		return false
	}
	var names []string
	for _, fn := range testDecls(t, dir) {
		if !strings.HasPrefix(fn.Name.Name, "Test") {
			continue
		}
		skips := false
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if st, ok := n.(*ast.IfStmt); ok && onRace(st.Cond) {
				ast.Inspect(st.Body, func(n ast.Node) bool {
					switch x := n.(type) {
					case *ast.ReturnStmt:
						skips = true
					case *ast.SelectorExpr:
						skips = skips || strings.HasPrefix(x.Sel.Name, "Skip")
					}
					return true
				})
			}
			return !skips
		})
		if skips {
			names = append(names, fn.Name.Name)
		}
	}
	return names
}

// TestCIRunsRaceSkippedTests: every test that skips under -race, wholly or
// in part, must be reached by a go test line of CI's workflow without
// -race (or -short, -bench, -fuzz): one whose packages include its own and
// whose -run pattern, if any, selects it. The race step alone never runs
// what such a test checks.
func TestCIRunsRaceSkippedTests(t *testing.T) {
	const root = "../.."
	doc, err := ReadFile(root + "/.github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	type line struct {
		pkgs []string
		run  *regexp.Regexp
	}
	var lines []line
	for _, l := range strings.Split(doc, "\n") {
		_, cmd, ok := strings.Cut(l, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(l), "#") || strings.Contains(cmd, "-race") || strings.Contains(cmd, "-short") || strings.Contains(cmd, "-bench") || strings.Contains(cmd, "-fuzz") {
			continue
		}
		var ln line
		if run := runFlagRE.FindStringSubmatch(cmd); run != nil {
			ln.run = regexp.MustCompile(run[1])
		}
		for _, arg := range strings.Fields(cmd) {
			if strings.HasPrefix(arg, "./") {
				ln.pkgs = append(ln.pkgs, strings.TrimSuffix(filepath.Clean(arg), "/"))
			}
		}
		lines = append(lines, ln)
	}
	reached := func(pkg, test string) bool {
		for _, ln := range lines {
			if ln.run != nil && !ln.run.MatchString(test) {
				continue
			}
			for _, p := range ln.pkgs {
				if p == "..." || p == pkg {
					return true
				}
			}
		}
		return false
	}
	skipped := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if name := d.Name(); rel != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "bench") {
			return filepath.SkipDir
		}
		if ents, _ := filepath.Glob(filepath.Join(path, "*_test.go")); len(ents) == 0 {
			return nil
		}
		for _, test := range raceSkipped(t, path) {
			skipped++
			if !reached(rel, test) {
				t.Errorf("%s.%s skips under -race and no go test line of ci.yml without -race runs it", rel, test)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if skipped < 20 {
		t.Fatalf("found only %d tests that skip under -race; is the source parsed?", skipped)
	}
}
