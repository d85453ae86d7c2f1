package main

import (
	"math"
	"sort"
)

// sample is one timed operation on the workload's measured clock: when it
// ended and how long it took, both in seconds, and what the calibration
// loop last took before it (see calib.go).
type sample struct{ end, dur, calib float64 }

// stat is a metric computed on each window of a run, scaled to the
// reference speed by the calibrations taken inside the window. Value
// is what the run reports, the median over the windows; Min and Max are
// kept in the result file as the spread seen inside the run.
type stat struct {
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// median returns the median of xs without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile reads the q-quantile off an ascending slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// statOf summarises the windows' values.
func statOf(xs []float64) stat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return stat{Value: median(s), Min: s[0], Max: s[len(s)-1]}
}

// timing is the latency and throughput of one run, at the reference clock
// speed.
type timing struct {
	opsPerS, p50us, p95us stat
	// p99us is taken over the whole run: a window has too few samples
	// beyond it.
	p99us float64
	// rawP50us is the median operation as the wall clock saw it, and
	// calibUs the median calibration: the speed the host ran at.
	rawP50us, calibUs float64
}

// windows is how many equal stretches of the measured clock a run is cut
// into. A window is long enough for a steady median and short enough that
// the host seldom changes speed inside it.
const windows = 15

// summarize cuts the measured clock [0, total] into windows and computes
// throughput and latency percentiles over the operations that ended in
// each, scaled by the window's median calibration.
func summarize(samples []sample, total float64) timing {
	var durs, calibs [windows][]float64
	window := func(s sample) int { return min(int(s.end/total*windows), windows-1) }
	raw := make([]float64, 0, len(samples))
	var allCalibs []float64
	for _, s := range samples {
		k := window(s)
		durs[k] = append(durs[k], s.dur*1e6)
		raw = append(raw, s.dur*1e6)
		if s.calib > 0 {
			calibs[k] = append(calibs[k], s.calib)
			allCalibs = append(allCalibs, s.calib)
		}
	}
	var scale [windows]float64
	var ops, p50, p95 []float64
	for k := range durs {
		scale[k] = clockScale(median(calibs[k]))
		if len(durs[k]) == 0 {
			continue
		}
		sort.Float64s(durs[k])
		ops = append(ops, float64(len(durs[k]))/(total/windows*scale[k]))
		p50 = append(p50, quantile(durs[k], 0.50)*scale[k])
		p95 = append(p95, quantile(durs[k], 0.95)*scale[k])
	}
	scaled := make([]float64, len(samples))
	for i, s := range samples {
		scaled[i] = s.dur * 1e6 * scale[window(s)]
	}
	sort.Float64s(scaled)
	sort.Float64s(raw)
	return timing{
		opsPerS: statOf(ops), p50us: statOf(p50), p95us: statOf(p95), p99us: quantile(scaled, 0.99),
		rawP50us: quantile(raw, 0.50), calibUs: median(allCalibs) * 1e6,
	}
}

// geomean is the geometric mean of positive ratios.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}
