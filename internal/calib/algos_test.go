package calib

import (
	"strings"
	"testing"

	"repro/internal/cost"
)

func TestValidateAlgosCoversPortfolio(t *testing.T) {
	cfg := QuickConfig()
	cfg.AlgoPs = []int{4, 7}
	cfg.ValidateMs = []int{16, 256}
	fit := Fit{TsNs: 600, TwNs: 0, TcNs: 4, Ts: 150, Tw: 0.01}
	val, err := ValidateAlgos(native, fit, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 3 allreduce algorithms + 1 reduce algorithm on each of two group
	// sizes.
	if len(val) != 8 {
		t.Fatalf("got %d validations, want 8: %+v", len(val), val)
	}
	maxM := cfg.ValidateMs[len(cfg.ValidateMs)-1]
	seen := map[string]bool{}
	for _, v := range val {
		seen[string(v.Algo)] = true
		if len(v.Ms) == 0 || len(v.ButterflyNs) != len(v.Ms) || len(v.AlgoNs) != len(v.Ms) {
			t.Errorf("%s/%s p=%d: ragged sweep %d/%d/%d", v.Collective, v.Algo, v.P,
				len(v.Ms), len(v.ButterflyNs), len(v.AlgoNs))
		}
		for _, m := range v.Ms {
			pp := cost.Params{Ts: fit.Ts, Tw: fit.Tw, P: v.P, M: m}
			if !cost.Applicable(v.Collective, v.Algo, pp) {
				t.Errorf("%s/%s p=%d: swept inapplicable m=%d", v.Collective, v.Algo, v.P, m)
			}
		}
		if v.PredCross < 0 || v.PredCross > maxM || v.MeasCross < 0 || v.MeasCross > maxM {
			t.Errorf("%s/%s p=%d: crossovers (%d, %d) out of [0, %d]",
				v.Collective, v.Algo, v.P, v.PredCross, v.MeasCross, maxM)
		}
		if v.Agreement < 0 || v.Agreement > 1 {
			t.Errorf("%s/%s p=%d: agreement %g out of [0, 1]", v.Collective, v.Algo, v.P, v.Agreement)
		}
	}
	for _, a := range []cost.Algo{cost.AlgoRabenseifner, cost.AlgoRing, cost.AlgoRingBi, cost.AlgoPipeline} {
		if !seen[string(a)] {
			t.Errorf("portfolio validation missed %s", a)
		}
	}

	text := FormatAlgoValidation(val)
	for _, want := range []string{"Algorithm crossovers", "rabenseifner", "ring-bi", "pipeline"} {
		if !strings.Contains(text, want) {
			t.Errorf("formatted validation lacks %q:\n%s", want, text)
		}
	}
}

func TestValidateAlgosFallsBackToValidateP(t *testing.T) {
	cfg := QuickConfig()
	cfg.AlgoPs = nil
	cfg.ValidateMs = []int{64}
	val, err := ValidateAlgos(native, Fit{Ts: 100, Tw: 0.01, TcNs: 1}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range val {
		if v.P != cfg.ValidateP {
			t.Errorf("expected the ValidateP fallback (p=%d), got p=%d", cfg.ValidateP, v.P)
		}
	}
}
