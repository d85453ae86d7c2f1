package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/calib"
)

func runOpt(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	return runOptStdin(t, "", args...)
}

// runOptStdin runs the CLI with the given stdin contents.
func runOptStdin(t *testing.T, stdin string, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, strings.NewReader(stdin), &out, &errb)
	return out.String(), errb.String(), code
}

func TestOptimizesAndVerifies(t *testing.T) {
	out, _, code := runOpt(t, "-ts", "1000", "-m", "16", "bcast ; scan(+) ; scan(+)")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	for _, want := range []string{
		"applicable rules:",
		"BSS-Comcast",
		"applied BSS-Comcast",
		"optimized: bcast; map# repeat(op_comp_bss(+))",
		"verified:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRefusesUnprofitableRewrite(t *testing.T) {
	// Large blocks, tiny start-up: SS2-Scan must not fire.
	out, _, code := runOpt(t, "-ts", "1", "-m", "100000", "scan(*) ; scan(+)")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "no profitable rewrite") {
		t.Fatalf("output:\n%s", out)
	}
	if !strings.Contains(out, "does not improve") {
		t.Fatalf("applicable listing should flag the unprofitable rule:\n%s", out)
	}
}

func TestAllFlagIgnoresCosts(t *testing.T) {
	out, _, code := runOpt(t, "-all", "-ts", "1", "-m", "100000", "scan(*) ; scan(+)")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "applied SS2-Scan") {
		t.Fatalf("-all should force the rewrite:\n%s", out)
	}
}

func TestNoRuleApplies(t *testing.T) {
	out, _, code := runOpt(t, "scan(+)")
	if code != 0 || !strings.Contains(out, "no optimization rule applies") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

func TestParseErrorExitCode(t *testing.T) {
	_, errb, code := runOpt(t, "scan(bogus)")
	if code != 1 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errb, "unknown operator") {
		t.Fatalf("stderr: %s", errb)
	}
}

func TestUsageOnMissingArgument(t *testing.T) {
	_, errb, code := runOpt(t)
	if code != 2 || !strings.Contains(errb, "usage: collopt") {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
}

// TestProgFlag covers the -prog alternative to the positional argument,
// including "-prog -" reading the program from stdin.
func TestProgFlag(t *testing.T) {
	cases := []struct {
		name    string
		stdin   string
		args    []string
		code    int
		wantOut string
		wantErr string
	}{
		{
			name:    "stdin program",
			stdin:   "bcast ; scan(+) ; scan(+)\n",
			args:    []string{"-ts", "1000", "-m", "16", "-prog", "-"},
			code:    0,
			wantOut: "applied BSS-Comcast",
		},
		{
			name:    "stdin with trailing comment lines",
			stdin:   "scan(*) ; reduce(+) # piped from a generator\n",
			args:    []string{"-ts", "5000", "-prog", "-"},
			code:    0,
			wantOut: "applied SR2-Reduction",
		},
		{
			name:    "prog flag with inline value",
			args:    []string{"-ts", "5000", "-prog", "scan(+) ; reduce(+)"},
			code:    0,
			wantOut: "applied SR-Reduction",
		},
		{
			name:    "stdin parse error exits 1",
			stdin:   "scan(bogus)",
			args:    []string{"-prog", "-"},
			code:    1,
			wantErr: "unknown operator",
		},
		{
			name:    "empty stdin exits 1",
			stdin:   "",
			args:    []string{"-prog", "-"},
			code:    1,
			wantErr: "parse error",
		},
		{
			name:    "both positional and -prog exits 2",
			args:    []string{"-prog", "scan(+)", "reduce(+)"},
			code:    2,
			wantErr: "not both",
		},
		{
			name:    "stdin works with -mpi",
			stdin:   "MPI_Scan (x, y, c, t, MPI_PROD, comm); MPI_Reduce (y, u, c, t, MPI_SUM, root, comm);",
			args:    []string{"-mpi", "-prog", "-"},
			code:    0,
			wantOut: "applied SR2-Reduction",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out, errb, code := runOptStdin(t, c.stdin, c.args...)
			if code != c.code {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", code, c.code, out, errb)
			}
			if c.wantOut != "" && !strings.Contains(out, c.wantOut) {
				t.Errorf("stdout missing %q:\n%s", c.wantOut, out)
			}
			if c.wantErr != "" && !strings.Contains(errb, c.wantErr) {
				t.Errorf("stderr missing %q:\n%s", c.wantErr, errb)
			}
		})
	}
}

func TestBadFlag(t *testing.T) {
	_, _, code := runOpt(t, "-nope", "scan(+)")
	if code != 2 {
		t.Fatalf("exit %d", code)
	}
}

func TestRulesCatalogFlag(t *testing.T) {
	out, _, code := runOpt(t, "-rules")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"SR2-Reduction", "CR-AllLocal", "BM-Mobility", "class Comcast"} {
		if !strings.Contains(out, want) {
			t.Errorf("catalog missing %q", want)
		}
	}
}

func TestExplainFlag(t *testing.T) {
	out, _, code := runOpt(t, "-explain", "-ts", "5000", "scan(+) ; reduce(+)")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "SR-Reduction (at stage 0)") || !strings.Contains(out, "⊕ is commutative") {
		t.Fatalf("explain output:\n%s", out)
	}
}

func TestMPIFlag(t *testing.T) {
	out, _, code := runOpt(t, "-mpi",
		"MPI_Scan (x, y, c, t, MPI_PROD, comm); MPI_Reduce (y, u, c, t, MPI_SUM, root, comm);")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "applied SR2-Reduction") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestEmitMPIFlag(t *testing.T) {
	out, _, code := runOpt(t, "-emit-mpi", "-ts", "5000", "scan(*) ; reduce(+)")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "MPI-like pseudocode") || !strings.Contains(out, "MPI_Reduce") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestLocalRuleVerifiesOnItsDomain(t *testing.T) {
	// BSR-Local holds only on power-of-two machines; the CLI must
	// verify it there instead of failing on p = 3.
	out, _, code := runOpt(t, "-ts", "5000", "bcast ; scan(+) ; reduce(+)")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "applied BSR-Local") || !strings.Contains(out, "verified:") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestParamsFileDrivesOptimizer(t *testing.T) {
	rep := calib.Report{Backend: "native", Reps: 1,
		Fit: calib.Fit{TsNs: 1200, TwNs: 4, TcNs: 4, Ts: 300, Tw: 1}}
	path := filepath.Join(t.TempDir(), "calib.json")
	if err := calib.WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	out, errb, code := runOpt(t, "-params-file", path, "-p", "8", "-m", "4", "scan(+) ; reduce(+)")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "ts=300 tw=1") || !strings.Contains(out, "(calibrated from "+path+")") {
		t.Fatalf("calibrated parameters not in force:\n%s", out)
	}

	if _, errb, code := runOpt(t, "-params-file", "/nonexistent.json", "scan(+)"); code != 1 ||
		!strings.Contains(errb, "collopt:") {
		t.Fatalf("missing params file: exit %d, stderr: %s", code, errb)
	}
}

// TestParamsFileRejectsHostileFit: a report whose parameters would rank
// every rule backwards is refused before any plan is printed.
func TestParamsFileRejectsHostileFit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hostile.json")
	if err := os.WriteFile(path, []byte(`{"fit":{"tc_ns":1,"ts":-5000,"tw":-3}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, errb, code := runOpt(t, "-params-file", path, "scan(+) ; reduce(+)")
	if code != 1 || out != "" {
		t.Fatalf("exit %d, stdout %q; want exit 1 and no plan", code, out)
	}
	if !strings.Contains(errb, path) || !strings.Contains(errb, "fit.ts") {
		t.Fatalf("stderr does not name the file and the field: %s", errb)
	}
}

func TestSearchFlagBeatsGreedyOnTrap(t *testing.T) {
	out, _, code := runOpt(t, "-search", "scan(*) ; scan(+) ; reduce(+)")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	for _, want := range []string{
		"plan search:",
		"search beats greedy:",
		"greedy derivation (forfeited):",
		"- SS2-Scan @0",
		"search derivation (taken):",
		"+ SR-Reduction @1",
		"optimized: scan(*) ; map pair ; reduce_balanced(op_sr(+)) ; map pi_1",
		"verified:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSearchFlagAgreesOnTie(t *testing.T) {
	out, _, code := runOpt(t, "-search", "scan(+) ; reduce(+)")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "search agrees with the greedy plan") {
		t.Fatalf("output:\n%s", out)
	}
}
