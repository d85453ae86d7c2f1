package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/calib"
	"repro/internal/cost"
	"repro/internal/mpbackend"
)

// TestMain lets -backend multiproc run inside the tests: the test binary
// re-executes itself as the rank workers, and MaybeWorker diverts those
// re-executions before any test runs.
func TestMain(m *testing.M) {
	mpbackend.MaybeWorker()
	os.Exit(m.Run())
}

func runBench(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return out.String(), errb.String(), code
}

func TestTable1Predicted(t *testing.T) {
	out, _, code := runBench(t, "-table1", "-p", "8", "-m", "16")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"SR2-Reduction", "CR-AllLocal", "always", "ts > 2m"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestTable1Measured(t *testing.T) {
	out, _, code := runBench(t, "-table1", "-measured", "-p", "8", "-m", "8")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "meas before") {
		t.Fatalf("missing measured columns:\n%s", out)
	}
}

func TestFigure2(t *testing.T) {
	out, _, code := runBench(t, "-fig2")
	if code != 0 || !strings.Contains(out, "[10, 24]") && !strings.Contains(out, "(10, 24)") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
}

func TestFigure3(t *testing.T) {
	out, _, code := runBench(t, "-fig3", "-p", "8", "-m", "8")
	if code != 0 || !strings.Contains(out, "time saved") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestFigure7PlotAndCSV(t *testing.T) {
	out, _, code := runBench(t, "-fig7", "-p", "16", "-m", "256")
	if code != 0 || !strings.Contains(out, "Figure 7") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	out, _, code = runBench(t, "-fig7", "-csv", "-p", "16", "-m", "256")
	if code != 0 || !strings.Contains(out, "processors,bcast; scan") {
		t.Fatalf("csv exit %d:\n%s", code, out)
	}
}

func TestFigure8(t *testing.T) {
	out, _, code := runBench(t, "-fig8", "-csv", "-p", "16", "-m", "256")
	if code != 0 || !strings.Contains(out, "block size,") {
		t.Fatalf("exit %d:\n%s", code, out)
	}
}

func TestCrossover(t *testing.T) {
	out, _, code := runBench(t, "-crossover", "-ts", "1024", "-p", "16")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "SS2-Scan") || !strings.Contains(out, "predicted m = 511") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestPolyEval(t *testing.T) {
	out, _, code := runBench(t, "-polyeval", "-p", "8", "-m", "64")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "PolyEval_3") || strings.Contains(out, "WRONG RESULT") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestReport(t *testing.T) {
	out, _, code := runBench(t, "-report", "-p", "8")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "## Reproduced evaluation") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestNoExperimentSelected(t *testing.T) {
	_, errb, code := runBench(t)
	if code != 2 || !strings.Contains(errb, "select an experiment") {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
}

func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"zero p", []string{"-table1", "-p", "0"}, "-p must be a positive"},
		{"negative p", []string{"-fig7", "-p", "-4"}, "-p must be a positive"},
		{"zero m", []string{"-table1", "-p", "8", "-m", "0"}, "-m must be a positive"},
		{"negative m", []string{"-fig8", "-m", "-1"}, "-m must be a positive"},
		{"zero reps", []string{"-table1", "-reps", "0"}, "-reps must be at least 1"},
		{"bad backend", []string{"-table1", "-backend", "quantum"}, `-backend must be "virtual", "native" or "multiproc"`},
		{"non-pow2 measured table", []string{"-table1", "-measured", "-p", "6"}, "power-of-two"},
		{"bad transport", []string{"-table1", "-transport", "turbo"}, `unknown transport "turbo"`},
		{"copy transport on multiproc", []string{"-algos", "-backend", "multiproc", "-transport", "copy"},
			"a process boundary always copies"},
		{"multiproc unsupported mode", []string{"-table1", "-backend", "multiproc"},
			"-backend multiproc supports -calibrate and -algos"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, errb, code := runBench(t, tc.args...)
			if code != 2 {
				t.Fatalf("exit %d, want 2 (stderr: %s)", code, errb)
			}
			if !strings.Contains(errb, tc.want) {
				t.Fatalf("stderr %q does not mention %q", errb, tc.want)
			}
		})
	}
}

func TestTable1NativeBackend(t *testing.T) {
	out, _, code := runBench(t, "-table1", "-measured", "-backend", "native",
		"-p", "4", "-m", "8", "-reps", "2")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "native wall-clock") || !strings.Contains(out, "meas before") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestTransportCopyNativeBackend(t *testing.T) {
	// -transport copy must swap the native runner onto the deep-copying
	// baseline without changing any result the table reports.
	out, _, code := runBench(t, "-table1", "-measured", "-backend", "native",
		"-transport", "copy", "-p", "4", "-m", "8", "-reps", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "native wall-clock") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestFigure7NativeBackend(t *testing.T) {
	out, _, code := runBench(t, "-fig7", "-csv", "-backend", "native",
		"-p", "4", "-m", "16", "-reps", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "processors,bcast; scan") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestVirtualOnlyModeNotice(t *testing.T) {
	out, errb, code := runBench(t, "-fig2", "-backend", "native")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errb, "-fig2 runs on the virtual machine") {
		t.Fatalf("stderr missing notice: %s", errb)
	}
	if !strings.Contains(out, "P1 = allreduce(+)") {
		t.Fatalf("fig2 output missing:\n%s", out)
	}
}

// TestAlgosQuick runs the portfolio sweep end to end on the quick grid:
// one table row per (collective, algorithm, p), each with a block size or
// "never" in both crossover columns.
func TestAlgosQuick(t *testing.T) {
	out, errb, code := runBench(t, "-algos", "-quick", "-reps", "1")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "portfolio vs butterfly (native wall-clock, reps=1)") {
		t.Errorf("output lacks the native header:\n%s", out)
	}
	crossover := regexp.MustCompile(`^(never|[0-9]+)$`)
	rows := map[string]bool{}
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) != 8 || (f[0] != cost.CollAllReduce && f[0] != cost.CollReduce) {
			continue
		}
		rows[strings.Join(f[:3], " ")] = true
		if !crossover.MatchString(f[3]) || !crossover.MatchString(f[4]) {
			t.Errorf("crossover columns %q, %q: want a block size or \"never\":\n%s", f[3], f[4], line)
		}
	}
	for _, p := range calib.QuickConfig().AlgoPs {
		for _, collective := range []string{cost.CollAllReduce, cost.CollReduce} {
			for _, a := range cost.Algos(collective)[1:] {
				row := fmt.Sprintf("%s %s %d", collective, a, p)
				if !rows[row] {
					t.Errorf("no table row for %q:\n%s", row, out)
				}
				delete(rows, row)
			}
		}
	}
	if len(rows) != 0 {
		t.Errorf("rows outside the quick grid: %v", rows)
	}
}

func TestCrossFig(t *testing.T) {
	out, _, code := runBench(t, "-crossfig", "-ts", "1024", "-csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "SS2-Scan crossover") || !strings.Contains(out, "block size,before") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestScalingFlag(t *testing.T) {
	out, _, code := runBench(t, "-scaling", "-p", "16", "-m", "64", "-csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "strong scaling") || !strings.Contains(out, "processors,before,after") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestAppsFlag(t *testing.T) {
	out, _, code := runBench(t, "-apps", "-ts", "100")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "mss strong scaling") || !strings.Contains(out, "samplesort strong scaling") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestCalibrateQuick(t *testing.T) {
	path := filepath.Join(t.TempDir(), "CALIB_native.json")
	out, errb, code := runBench(t, "-calibrate", "-quick", "-reps", "1", "-params-file", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	for _, want := range []string{"Calibration", "fitted (ns)", "Break-even validation", "wrote calibration report"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output lacks %q:\n%s", want, out)
		}
	}
	rep, err := calib.ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "native" || len(rep.Validation) == 0 {
		t.Fatalf("report is not usable: %+v", rep)
	}

	// Round-trip: the report drives a predicted Table 1 run.
	out, errb, code = runBench(t, "-table1", "-params-file", path, "-p", "8", "-m", "16")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "using calibrated parameters from") {
		t.Fatalf("output does not acknowledge the params file:\n%s", out)
	}
}

func TestParamsFileErrors(t *testing.T) {
	if _, errb, code := runBench(t, "-table1", "-params-file", "/nonexistent/calib.json"); code != 1 ||
		!strings.Contains(errb, "collbench:") {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("[]"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, errb, code := runBench(t, "-table1", "-params-file", bad); code != 1 ||
		!strings.Contains(errb, "not a calibration report") {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
}

// jsonKeys collects every key path of a decoded JSON document, array
// elements folded together — the file's schema.
func jsonKeys(t *testing.T, path string) map[string]bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	keys := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, sub := range x {
				keys[prefix+k] = true
				walk(prefix+k+".", sub)
			}
		case []any:
			for _, sub := range x {
				walk(prefix+"[].", sub)
			}
		}
	}
	walk("", doc)
	return keys
}

// sameSchema fails the test unless the JSON file at path has exactly the
// key set of the committed file, so a schema cannot drift silently under
// the file's readers (-params-file, the docs, external tooling).
func sameSchema(t *testing.T, path, committed string) {
	t.Helper()
	got, want := jsonKeys(t, path), jsonKeys(t, committed)
	for k := range want {
		if !got[k] {
			t.Errorf("%s: key %q of the committed file is gone", filepath.Base(committed), k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s: new key %q is not in the committed file", filepath.Base(committed), k)
		}
	}
}

// TestCalibrateMultiProcKeepsTheReportSchema: a report with a multiproc
// section, as written today, has the schema of the committed
// CALIB_native.json — which itself still loads.
func TestCalibrateMultiProcKeepsTheReportSchema(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes")
	}
	path := filepath.Join(t.TempDir(), "calib.json")
	out, errb, code := runBench(t, "-calibrate", "-quick", "-reps", "1", "-backend", "multiproc", "-params-file", path)
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb)
	}
	if !strings.Contains(out, "Multi-process calibration") {
		t.Errorf("output lacks the multiproc section:\n%s", out)
	}
	sameSchema(t, path, "../../CALIB_native.json")
	if _, err := calib.ReadReport("../../CALIB_native.json"); err != nil {
		t.Errorf("committed report no longer loads: %v", err)
	}
}
