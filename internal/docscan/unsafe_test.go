package docscan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// viewCalls are the unsafe calls that make a view or a raw pointer.
// unsafe.Sizeof and its kin compute a constant and are not checked.
var viewCalls = map[string]bool{"String": true, "StringData": true, "Slice": true, "SliceData": true, "Pointer": true}

// perfCiteRE matches a citation of a docs/PERF.md heading.
var perfCiteRE = regexp.MustCompile(`docs/PERF\.md\s+"([^"]+)"`)

// uncitedUnsafe returns, as "file:line", every view-making unsafe call in
// src that neither the comment ending on the line above it nor one on its
// own line justifies: such a comment names a heading of docs/PERF.md and
// carries a figure, the paired measurement the heading holds.
func uncitedUnsafe(t *testing.T, fset *token.FileSet, name, src string, headings map[string]bool) []string {
	t.Helper()
	f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	unsafeName := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"unsafe"` {
			unsafeName = "unsafe"
			if imp.Name != nil {
				unsafeName = imp.Name.Name
			}
		}
	}
	if unsafeName == "" {
		return nil
	}
	justified := func(line int) bool {
		for _, g := range f.Comments {
			start, end := fset.Position(g.Pos()).Line, fset.Position(g.End()).Line
			if end != line-1 && start != line {
				continue
			}
			text := g.Text()
			for _, m := range perfCiteRE.FindAllStringSubmatch(strings.Join(strings.Fields(text), " "), -1) {
				if headings[m[1]] && strings.ContainsAny(text, "0123456789") {
					return true
				}
			}
		}
		return false
	}
	var bad []string
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && x.Name == unsafeName && viewCalls[sel.Sel.Name] {
			if pos := fset.Position(sel.Pos()); !justified(pos.Line) {
				bad = append(bad, name+":"+strconv.Itoa(pos.Line))
			}
		}
		return true
	})
	return bad
}

// perfHeadings returns the headings of docs/PERF.md.
func perfHeadings(t *testing.T, root string) map[string]bool {
	t.Helper()
	doc, err := ReadFile(filepath.Join(root, "docs/PERF.md"))
	if err != nil {
		t.Fatal(err)
	}
	headings := make(map[string]bool)
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(line, "#") {
			headings[strings.TrimSpace(strings.TrimLeft(line, "#"))] = true
		}
	}
	return headings
}

// TestUnsafeViewsCiteTheirWin: every unsafe.String, unsafe.Slice,
// unsafe.Pointer (and StringData, SliceData) in a non-test file of
// internal/ or cmd/, outside internal/mpbackend, whose socket calls need
// raw pointers, sits under or beside a comment that names a docs/PERF.md
// heading holding the paired measurement that keeps it — a view is kept
// only where it pays.
func TestUnsafeViewsCiteTheirWin(t *testing.T) {
	const root = "../.."
	headings := perfHeadings(t, root)
	fset := token.NewFileSet()
	files := 0
	for _, dir := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, dir), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && filepath.Base(path) == "mpbackend" && filepath.Base(filepath.Dir(path)) == "internal" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			src, err := ReadFile(path)
			if err != nil {
				return err
			}
			files++
			rel, _ := filepath.Rel(root, path)
			for _, at := range uncitedUnsafe(t, fset, rel, src, headings) {
				t.Errorf("%s: an unsafe view without a comment citing its docs/PERF.md measurement", at)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 50 {
		t.Fatalf("walked %d Go files; is the tree found?", files)
	}
}

// TestUncitedUnsafe holds the check to what it is meant to catch.
func TestUncitedUnsafe(t *testing.T) {
	headings := map[string]bool{"A view": true}
	for _, c := range []struct {
		src  string
		want int
	}{
		{"package p\nimport \"unsafe\"\nvar n = unsafe.Sizeof(0)\n", 0},
		{"package p\nimport \"unsafe\"\nfunc f(b []byte) string { return unsafe.String(&b[0], len(b)) }\n", 1},
		{"package p\nimport \"unsafe\"\n// A view saves 1 allocation (docs/PERF.md \"A view\").\nfunc f(b []byte) string { return unsafe.String(&b[0], len(b)) }\n", 0},
		{"package p\nimport \"unsafe\"\nfunc f(b []byte) string { return unsafe.String(&b[0], len(b)) } // docs/PERF.md \"A view\": 1 allocation\n", 0},
		{"package p\nimport \"unsafe\"\n// A view (docs/PERF.md \"A view\"), measured nowhere.\nfunc f(b []byte) string { return unsafe.String(&b[0], len(b)) }\n", 1},
		{"package p\nimport \"unsafe\"\n// A view saves 1 allocation (docs/PERF.md \"No such heading\").\nfunc f(b []byte) string { return unsafe.String(&b[0], len(b)) }\n", 1},
		{"package p\nimport u \"unsafe\"\nfunc f(x *int) uintptr { return uintptr(u.Pointer(x)) }\n", 1},
		{"package p\nimport \"unsafe\"\n// A view saves 1 allocation (docs/PERF.md \"A view\").\n\nfunc f(b []byte) string { return unsafe.String(&b[0], len(b)) }\n", 1},
	} {
		if got := uncitedUnsafe(t, token.NewFileSet(), "p.go", c.src, headings); len(got) != c.want {
			t.Errorf("%q: %d uncited uses (%v), want %d", c.src, len(got), got, c.want)
		}
	}
}
