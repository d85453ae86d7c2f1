package calib

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/exper"
	"repro/internal/rules"
)

// native is the Host most tests calibrate: goroutine ranks, two
// repetitions per measurement.
var native = exper.NativeHost(backend.TransportZeroCopy, 2)

func TestMeasureProducesFittableSamples(t *testing.T) {
	cfg := QuickConfig()
	samples, err := Measure(native, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples measured")
	}
	probes := map[string]bool{}
	for _, s := range samples {
		probes[s.Probe] = true
		if s.Ns <= 0 {
			t.Errorf("%s p=%d m=%d: measured %g ns, want > 0", s.Probe, s.P, s.M, s.Ns)
		}
		if s.CoefTs < 0 || s.CoefTw < 0 || s.CoefC < 0 {
			t.Errorf("%s p=%d m=%d: negative coefficient", s.Probe, s.P, s.M)
		}
	}
	for _, p := range []string{ProbePingPong, ProbeCompute, ProbeBcast, ProbeReduce, ProbeScan} {
		if !probes[p] {
			t.Errorf("probe %s missing from the sample set", p)
		}
	}
	fit, err := FitSamples(samples)
	if err != nil {
		t.Fatal(err)
	}
	if fit.TcNs <= 0 || fit.Ts < 0 || fit.Tw < 0 {
		t.Errorf("implausible fit: %+v", fit)
	}
}

func TestValidateCoversEveryRule(t *testing.T) {
	cfg := QuickConfig()
	fit := Fit{TsNs: 600, TwNs: 0, TcNs: 4, Ts: 150, Tw: 0}
	val, err := Validate(native, fit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// ValidateP = 4 is a power of two, so all 11 rules participate.
	if len(val) != 11 {
		t.Fatalf("got %d validations, want 11", len(val))
	}
	maxM := cfg.ValidateMs[len(cfg.ValidateMs)-1]
	for _, v := range val {
		if len(v.LhsNs) != len(cfg.ValidateMs) || len(v.RhsNs) != len(cfg.ValidateMs) {
			t.Errorf("%s: sweep has %d/%d points, want %d", v.Rule, len(v.LhsNs), len(v.RhsNs), len(cfg.ValidateMs))
		}
		if v.PredCross < 0 || v.PredCross > maxM || v.MeasCross < 0 || v.MeasCross > maxM {
			t.Errorf("%s: crossovers (%d, %d) out of [0, %d]", v.Rule, v.PredCross, v.MeasCross, maxM)
		}
		if v.Agreement < 0 || v.Agreement > 1 {
			t.Errorf("%s: agreement %g out of [0, 1]", v.Rule, v.Agreement)
		}
		if v.LHS == "" || v.RHS == "" || v.Class == "" {
			t.Errorf("%s: record is not self-describing: %+v", v.Rule, v)
		}
	}
}

func TestValidateSkipsLocalRulesOnNonPow2(t *testing.T) {
	cfg := QuickConfig()
	cfg.ValidateP = 6
	val, err := Validate(native, Fit{Ts: 100, TcNs: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range val {
		if r, _ := rules.ByName(v.Rule); r.NeedsPow2() {
			t.Errorf("rule %s, which needs p = 2^k, validated on p=6", v.Rule)
		}
	}
	if len(val) != 7 {
		t.Errorf("got %d validations on p=6, want the 7 rules that hold at any p", len(val))
	}
}

func TestRunAndReportRoundTrip(t *testing.T) {
	rep, err := Run(native, QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "native" || rep.Reps != native.Reps {
		t.Errorf("report is not self-describing: backend=%q reps=%d", rep.Backend, rep.Reps)
	}
	path := filepath.Join(t.TempDir(), "calib.json")
	if err := WriteReport(path, rep); err != nil {
		t.Fatal(err)
	}
	back, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Fit != rep.Fit {
		t.Errorf("fit did not round-trip: %+v != %+v", back.Fit, rep.Fit)
	}
	if len(back.Samples) != len(rep.Samples) || len(back.Validation) != len(rep.Validation) {
		t.Errorf("report lost records: %d/%d samples, %d/%d validations",
			len(back.Samples), len(rep.Samples), len(back.Validation), len(rep.Validation))
	}
	text := FormatReport(rep)
	for _, want := range []string{"Calibration", "fitted (ns)", "model units", "fit quality", "Break-even validation", "SR2-Reduction"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted report lacks %q:\n%s", want, text)
		}
	}
}

func TestReadReportRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	if _, err := ReadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file must be an error")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(bad); err == nil {
		t.Error("malformed JSON must be an error")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(empty); err == nil {
		t.Error("a report without a usable fit must be an error")
	}
}

// TestReadReportRejectsUnusableParameters: ts and tw reach the cost
// calculus unchecked from here on, so a file that no fit could have
// produced is refused with the file and the field named. The committed
// report is the accepted case.
func TestReadReportRejectsUnusableParameters(t *testing.T) {
	cases := []struct {
		name, doc, field string
	}{
		{"negative ts", `{"fit":{"tc_ns":1,"ts":-5000,"tw":-3}}`, "fit.ts"},
		{"negative tw", `{"fit":{"tc_ns":1,"ts":100,"tw":-3}}`, "fit.tw"},
		{"both zero", `{"fit":{"tc_ns":1,"ts":0,"tw":0}}`, "fit.ts and fit.tw"},
		{"negative multiproc ts", `{"fit":{"tc_ns":1,"ts":100,"tw":1},"multiproc":{"fit":{"tc_ns":1,"ts":-1,"tw":1}}}`, "multiproc.fit.ts"},
		{"negative multiproc tw", `{"fit":{"tc_ns":1,"ts":100,"tw":1},"multiproc":{"fit":{"tc_ns":1,"ts":1,"tw":-0.5}}}`, "multiproc.fit.tw"},
		{"multiproc both zero", `{"fit":{"tc_ns":1,"ts":100,"tw":1},"multiproc":{"fit":{"tc_ns":1}}}`, "multiproc.fit.ts and multiproc.fit.tw"},
		{"out-of-range ts", `{"fit":{"tc_ns":1,"ts":1e999,"tw":1}}`, "not a calibration report"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "calib.json")
			if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := ReadReport(path)
			if err == nil {
				t.Fatalf("%s loaded", tc.doc)
			}
			if !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("error %q does not name %s and %q", err, path, tc.field)
			}
		})
	}
	for _, ok := range []string{
		`{"fit":{"tc_ns":2,"ts":136.7,"tw":0}}`,
		`{"fit":{"tc_ns":2,"ts":0,"tw":1.5},"multiproc":{"fit":{"tc_ns":3,"ts":150,"tw":1.15}}}`,
	} {
		path := filepath.Join(t.TempDir(), "calib.json")
		if err := os.WriteFile(path, []byte(ok), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadReport(path); err != nil {
			t.Errorf("%s rejected: %v", ok, err)
		}
	}
	if _, err := ReadReport("../../CALIB_native.json"); err != nil {
		t.Errorf("committed report rejected: %v", err)
	}
}
