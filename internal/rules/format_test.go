package rules

import (
	"os"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/term"
)

func TestFormatRule(t *testing.T) {
	out := FormatRule(SS2Scan)
	for _, want := range []string{
		"SS2-Scan",
		"scan(⊗) ; scan(⊕)",
		"{ ⊗ distributes over ⊕ }",
		"map pair ; scan(op_sr2) ; map π₁",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatRule missing %q:\n%s", want, out)
		}
	}
}

func TestFormatApplication(t *testing.T) {
	e := NewEngine()
	prog := term.Seq{term.Scan{Op: algebra.Mul}, term.Reduce{Op: algebra.Add}}
	_, app, ok := e.Step(prog)
	if !ok {
		t.Fatal("no application")
	}
	out := FormatApplication(app)
	for _, want := range []string{
		"SR2-Reduction (at stage 0)",
		"scan(*) ; reduce(+)",
		"{ ⊗ distributes over ⊕ }",
		"reduce(op_sr2(*,+))",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatApplication missing %q:\n%s", want, out)
		}
	}
}

func TestCatalogListsEveryRule(t *testing.T) {
	out := Catalog(true)
	for _, r := range AllWithExtensions() {
		if !strings.Contains(out, r.Name) {
			t.Errorf("catalog missing %s", r.Name)
		}
	}
	for _, class := range []string{"Reduction", "Scan", "Comcast", "Local"} {
		if !strings.Contains(out, "-- class "+class+" --") {
			t.Errorf("catalog missing class header %s", class)
		}
	}
	if !strings.Contains(out, "-- extensions") {
		t.Error("catalog missing extensions section")
	}
	slim := Catalog(false)
	if strings.Contains(slim, "BM-Mobility") {
		t.Error("extension appeared in the paper-only catalog")
	}
}

func TestEveryRuleIsDocumented(t *testing.T) {
	for _, r := range AllWithExtensions() {
		if r.Pattern == "" || r.Cond == "" || r.Result == "" {
			t.Errorf("rule %s lacks schematic documentation", r.Name)
		}
	}
}

// TestRulesDocReadsAsCatalog checks that docs/RULES.md states every dense
// rule's pattern, right-hand side and condition as Catalog prints them.
func TestRulesDocReadsAsCatalog(t *testing.T) {
	doc, err := os.ReadFile("../../docs/RULES.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range append(All(), Extensions()...) {
		for _, want := range []string{"`" + r.Pattern + "` ⇒ `" + r.Result + "`", "| " + r.Cond + " "} {
			if !strings.Contains(string(doc), want) {
				t.Errorf("docs/RULES.md does not state %s's %q", r.Name, want)
			}
		}
	}
}
