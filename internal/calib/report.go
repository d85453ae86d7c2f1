package calib

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/exper"
)

// Report is the machine-readable calibration artifact (CALIB_native.json):
// the Host and repetition discipline that produced it, the fitted
// parameters with residuals, every raw probe sample, and the per-rule
// break-even validation. A report is self-describing — everything needed
// to reproduce or audit the numbers is in the file.
type Report struct {
	// Backend names the Host that measured ("native").
	Backend string `json:"backend"`
	// Reps is the repetitions per measurement (minimum taken) and
	// Rounds the base in-run iteration count.
	Reps   int `json:"reps"`
	Rounds int `json:"rounds"`
	// Fit is the fitted parameter set.
	Fit Fit `json:"fit"`
	// Samples are the raw probe observations the fit used.
	Samples []Sample `json:"samples"`
	// Validation is the per-rule predicted-vs-measured break-even
	// record.
	Validation []RuleValidation `json:"validation"`
	// Algos is the per-algorithm predicted-vs-measured crossover record
	// of the collective portfolio (see ValidateAlgos).
	Algos []AlgoValidation `json:"algos,omitempty"`
	// MultiProc is the multi-process Host's own fit, samples and
	// crossover validation (see Section) — the section where tw > 0.
	MultiProc *MPSection `json:"multiproc,omitempty"`
}

// MPSection is the shape a second Host's calibration takes inside a
// report: its own fit, raw samples, and portfolio-crossover validation.
type MPSection struct {
	// Workers is the host parallelism the probe coefficients assumed
	// (ranks beyond it serialize — see Coef).
	Workers int `json:"workers"`
	// Reps and Rounds document the repetition discipline.
	Reps   int `json:"reps"`
	Rounds int `json:"rounds"`
	// Fit is the fitted parameter set of this transport.
	Fit Fit `json:"fit"`
	// Samples are the raw probe observations on this transport.
	Samples []Sample `json:"samples"`
	// Algos is the portfolio-crossover validation on this transport.
	Algos []AlgoValidation `json:"algos,omitempty"`
}

// Run performs the full calibration pipeline on h — measure, fit,
// validate — and assembles the report. The rule validation needs whole
// programs, so a Host without a Runner gets none.
func Run(h exper.Host, cfg Config) (Report, error) {
	rep := Report{Backend: h.Name, Reps: h.Reps, Rounds: cfg.Rounds}
	var err error
	if rep.Fit, rep.Samples, err = Calibrate(h, cfg); err != nil {
		return Report{}, err
	}
	if h.Run != nil {
		if rep.Validation, err = Validate(h, rep.Fit, cfg); err != nil {
			return Report{}, err
		}
	}
	if rep.Algos, err = ValidateAlgos(h, rep.Fit, cfg); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// Section recasts h's report as the section another Host's report
// carries under "multiproc".
func Section(h exper.Host, r Report) *MPSection {
	return &MPSection{Workers: h.Workers, Reps: r.Reps, Rounds: r.Rounds, Fit: r.Fit, Samples: r.Samples, Algos: r.Algos}
}

// WriteReport writes the report as indented JSON.
func WriteReport(path string, r Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadReport loads a report written by WriteReport. CLI front-ends use
// it to feed the calibrated Ts/Tw back into the cost-guided optimizer
// (-params-file).
func ReadReport(path string) (Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Report{}, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return Report{}, fmt.Errorf("calib: %s is not a calibration report: %v", path, err)
	}
	if r.Fit.TcNs <= 0 {
		return Report{}, fmt.Errorf("calib: %s has no usable fit (tc_ns = %g)", path, r.Fit.TcNs)
	}
	if err := usable("fit", r.Fit); err != nil {
		return Report{}, fmt.Errorf("calib: %s: %v", path, err)
	}
	if mp := r.MultiProc; mp != nil {
		if err := usable("multiproc.fit", mp.Fit); err != nil {
			return Report{}, fmt.Errorf("calib: %s: %v", path, err)
		}
	}
	return r, nil
}

// usable rejects parameters no fit produces (FitSamples clamps ts and tw
// at zero) and the cost calculus cannot price with: a negative value
// ranks every rule backwards, and ts = tw = 0 makes communication free.
// Non-finite values never get here: encoding/json refuses them.
func usable(section string, f Fit) error {
	if f.Ts < 0 {
		return fmt.Errorf("%s.ts = %g is negative", section, f.Ts)
	}
	if f.Tw < 0 {
		return fmt.Errorf("%s.tw = %g is negative", section, f.Tw)
	}
	if f.Ts == 0 && f.Tw == 0 {
		return fmt.Errorf("%s.ts and %s.tw are both zero", section, section)
	}
	return nil
}

// FormatReport renders the fit and validation as aligned text — the
// human half of collbench -calibrate.
func FormatReport(r Report) string {
	var b strings.Builder
	formatSection(&b, fmt.Sprintf("Calibration (%s backend", r.Backend), r.Reps, r.Fit, r.Samples, r.Validation, r.Algos)
	if mp := r.MultiProc; mp != nil {
		b.WriteByte('\n')
		formatSection(&b, "Multi-process calibration (one OS process per rank", mp.Reps, mp.Fit, mp.Samples, nil, mp.Algos)
	}
	return b.String()
}

// formatSection prints one Host's calibration: the fit, its quality, and
// whichever validations it carries.
func formatSection(b *strings.Builder, title string, reps int, fit Fit, samples []Sample, val []RuleValidation, algos []AlgoValidation) {
	fmt.Fprintf(b, "== %s, reps=%d, %d samples) ==\n", title, reps, len(samples))
	fmt.Fprintf(b, "fitted (ns):   Ts = %.1f   Tw = %.4f   Tc = %.3f\n", fit.TsNs, fit.TwNs, fit.TcNs)
	fmt.Fprintf(b, "model units:   ts = %.1f    tw = %.4f   (1 unit = one elementary op = %.3f ns)\n",
		fit.Ts, fit.Tw, fit.TcNs)
	fmt.Fprintf(b, "fit quality:   R² = %.4f   rel RMSE = %.1f%%   max rel err = %.1f%%\n",
		fit.R2, 100*fit.RelRMSE, 100*fit.MaxRelErr)
	for _, table := range []string{FormatValidation(val), FormatAlgoValidation(algos)} {
		if table != "" {
			b.WriteByte('\n')
			b.WriteString(table)
		}
	}
}

// FormatValidation renders the per-rule break-even table.
func FormatValidation(val []RuleValidation) string {
	var b strings.Builder
	if len(val) == 0 {
		return ""
	}
	cap := val[0].Ms[len(val[0].Ms)-1]
	fmt.Fprintf(&b, "== Break-even validation (p=%d, sweep m=%d..%d, predicted with calibrated ts/tw) ==\n",
		val[0].P, val[0].Ms[0], cap)
	fmt.Fprintf(&b, "%-14s %12s %12s %8s %8s %7s\n", "Rule", "predicted m", "measured m", "abs err", "rel err", "agree")
	for _, v := range val {
		pred, meas := fmt.Sprintf("%d", v.PredCross), fmt.Sprintf("%d", v.MeasCross)
		if v.PredCross == cap {
			pred += " (cap)"
		}
		if v.MeasCross == cap {
			meas += " (cap)"
		}
		fmt.Fprintf(&b, "%-14s %12s %12s %8d %7.0f%% %6.0f%%\n",
			v.Rule, pred, meas, v.AbsErr, 100*v.RelErr, 100*v.Agreement)
	}
	return b.String()
}
