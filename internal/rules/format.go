package rules

import (
	"fmt"
	"strings"

	"repro/internal/term"
)

// FormatRule renders a rule in the paper's box format (§3.1):
//
//	SS2-Scan
//	    scan(⊗) ; scan(⊕)
//	    ⇓  { ⊗ distributes over ⊕ }
//	    map pair ; scan(op_sr2) ; map π₁
func FormatRule(r Rule) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Name)
	fmt.Fprintf(&b, "    %s\n", r.Pattern)
	fmt.Fprintf(&b, "    =>  { %s }\n", r.Cond)
	fmt.Fprintf(&b, "    %s\n", r.Result)
	return b.String()
}

// FormatApplication renders one engine application in the same format,
// with the concrete matched stages instead of the schematic pattern.
func FormatApplication(a Application) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (at stage %d)\n", a.Rule, a.Pos)
	fmt.Fprintf(&b, "    %s\n", term.Seq(a.Before))
	cond := "—"
	if r, ok := ByName(a.Rule); ok {
		cond = r.Cond
	}
	fmt.Fprintf(&b, "    =>  { %s }\n", cond)
	fmt.Fprintf(&b, "    %s\n", term.Seq(a.After))
	if a.CostBefore != 0 || a.CostAfter != 0 {
		fmt.Fprintf(&b, "    estimated %.0f -> %.0f\n", a.CostBefore, a.CostAfter)
	}
	return b.String()
}

// Catalog renders the full rule set — the paper rules by class, then the
// extensions — as a reference card.
func Catalog(includeExtensions bool) string {
	var b strings.Builder
	b.WriteString("Optimization rules (Gorlatch/Wedler/Lengauer, IPPS'99):\n\n")
	class := ""
	for _, r := range []Rule{SR2Reduction, SRReduction, SS2Scan, SSScan, BSComcast, BSS2Comcast, BSSComcast,
		BRLocal, BSR2Local, BSRLocal, CRAllLocal} {
		if r.Class != class {
			class = r.Class
			fmt.Fprintf(&b, "-- class %s --\n\n", class)
		}
		b.WriteString(FormatRule(r) + "\n")
	}
	if includeExtensions {
		b.WriteString("-- extensions (beyond the paper) --\n\n")
		for _, r := range Extensions() {
			b.WriteString(FormatRule(r) + "\n")
		}
	}
	b.WriteString("-- sparse collectives (message combining) --\n\n")
	for _, r := range Sparse() {
		b.WriteString(FormatRule(r) + "\n")
	}
	return b.String()
}
