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

// testFuncs returns the Test, Fuzz and Example functions of the package
// in dir.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					names = append(names, fn.Name.Name)
				}
			}
		}
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
