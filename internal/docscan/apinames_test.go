package docscan

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"regexp"
	"strings"
	"testing"
)

// apiPackages are the packages whose exported names the docs quote as
// `pkg.Name`, with their directories relative to this one; apiTypes are
// the types quoted as `Type.Member`, with the package declaring them.
var (
	apiPackages = map[string]string{
		"core": "../core", "cost": "../cost", "coll": "../coll",
		"sel": "../coll/sel", "serve": "../serve", "exper": "../exper",
		"backend": "../backend", "mpbackend": "../mpbackend", "machine": "../machine",
		"chaos": "../chaos", "rank": "../rank",
	}
	apiTypes = map[string]string{"Program": "core", "Optimization": "core", "Planner": "serve"}
)

// apiRefRE matches a qualified exported name inside a code span. The
// qualifier must open the token, so `core.Program.Run` is checked as
// `core.Program` and a path like `internal/coll.go` is not a reference.
var apiRefRE = regexp.MustCompile(`(?:^|[^\w./])([A-Za-z]+)\.([A-Z]\w*)`)

// exportedNames parses a package's non-test files and returns its
// exported top-level identifiers plus "Type.Member" for every exported
// method and struct field.
func exportedNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						names[d.Name.Name] = true
						continue
					}
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						names[id.Name+"."+d.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.ValueSpec:
							for _, id := range s.Names {
								names[id.Name] = true
							}
						case *ast.TypeSpec:
							names[s.Name.Name] = true
							if st, ok := s.Type.(*ast.StructType); ok {
								for _, f := range st.Fields.List {
									for _, id := range f.Names {
										names[s.Name.Name+"."+id.Name] = true
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return names
}

// TestDocsNameExistingAPI: every `core.X`, `cost.X`, `coll.X`, `sel.X`,
// `serve.X`, `exper.X` and `Program.X` (`Optimization.X`, `Planner.X`)
// code span in README.md, DESIGN.md and docs/*.md must resolve to an
// exported identifier of that package, found by parsing its source — so
// deleting or renaming an entry point while a page still names it fails
// here, naming the page, instead of leaving a stale tutorial.
func TestDocsNameExistingAPI(t *testing.T) {
	byPage, err := CodeSpansInDir("../../docs")
	if err != nil {
		t.Fatal(err)
	}
	for _, page := range []string{"README.md", "DESIGN.md"} {
		doc, err := ReadFile("../../" + page)
		if err != nil {
			t.Fatal(err)
		}
		byPage[page] = CodeSpans(doc)
	}
	names := make(map[string]map[string]bool)
	for pkg, dir := range apiPackages {
		names[pkg] = exportedNames(t, dir)
	}
	checked := 0
	for page, spans := range byPage {
		for _, span := range spans {
			for _, m := range apiRefRE.FindAllStringSubmatch(span, -1) {
				qual, name := m[1], m[2]
				switch {
				case names[qual] != nil:
					checked++
					if !names[qual][name] {
						t.Errorf("%s: `%s` names %s.%s, which package %s does not export", page, span, qual, name, qual)
					}
				case apiTypes[qual] != "":
					checked++
					if !names[apiTypes[qual]][qual+"."+name] {
						t.Errorf("%s: `%s` names %s.%s, which is no method or field of %s.%s", page, span, qual, name, apiTypes[qual], qual)
					}
				}
			}
		}
	}
	if checked < 20 {
		t.Errorf("only %d API references found across the docs; the scan no longer sees them", checked)
	}
}
