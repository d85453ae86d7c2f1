package docscan

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// linkRE matches the target of a Markdown link, without its #fragment.
var linkRE = regexp.MustCompile(`\]\(([^)#\s]*)(?:#[^)\s]*)?\)`)

// fileSpanRE matches a code span that is nothing but the name of a .json
// or .md file: bare (`CALIB_native.json`, a file at the root) or a
// repo-relative path (`bench/README.md`).
var fileSpanRE = regexp.MustCompile(`^[\w./-]+\.(?:json|md)$`)

// TestDocsNameExistingFiles: every relative Markdown link and every
// back-ticked .json / .md file name in README.md, DESIGN.md and
// docs/*.md must exist in the tree — the file half of the drift checks,
// so deleting a committed artifact while a page still points at it fails
// here, naming the page.
func TestDocsNameExistingFiles(t *testing.T) {
	const root = "../.."
	pages, err := filepath.Glob(root + "/docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	pages = append(pages, root+"/README.md", root+"/DESIGN.md")
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	checked := 0
	for _, page := range pages {
		doc, err := ReadFile(page)
		if err != nil {
			t.Fatal(err)
		}
		name, _ := filepath.Rel(root, page)
		for _, m := range linkRE.FindAllStringSubmatch(doc, -1) {
			target := m[1]
			if target == "" || strings.Contains(target, ":") {
				continue // same-page anchor, or a URL with a scheme
			}
			checked++
			if !exists(filepath.Join(filepath.Dir(page), target)) {
				t.Errorf("%s links to %s, which does not exist", name, target)
			}
		}
		for _, span := range CodeSpans(doc) {
			if !fileSpanRE.MatchString(span) {
				continue
			}
			checked++
			if !exists(filepath.Join(root, span)) {
				t.Errorf("%s names `%s`, which is not a file of the repository", name, span)
			}
		}
	}
	if checked < 20 {
		t.Errorf("only %d file references found across the docs; the scan no longer sees them", checked)
	}
}
