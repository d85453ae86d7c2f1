package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
)

// outDir receives result files and traces; it has its own .gitignore.
const outDir = "bench/out"

// scratchDir holds what a run leaves behind besides results: the build
// (run.sh puts the binary and Go's caches here) and the multi-process
// backend's job directories.
const scratchDir = ".bench_build"

// maxSocketDir bounds the scratch path: a rank's socket lives at
// <TMPDIR>/collmpNNNNNNNNNN/rank.N.sock and sun_path holds 108 bytes.
const maxSocketDir = 70

// keepScratchInside points os.TempDir, which mpbackend.Run uses for its
// job directory and sockets, into the checkout. Rank processes inherit it.
// A checkout path too long for a socket address keeps the system default.
func keepScratchInside() error {
	cwd, err := os.Getwd()
	if err != nil {
		return err
	}
	tmp := filepath.Join(cwd, scratchDir, "tmp")
	if len(tmp) > maxSocketDir {
		fmt.Fprintf(os.Stderr, "bench: %s is too long for a socket address; multi-process scratch stays in %s\n", tmp, os.TempDir())
	} else {
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return err
		}
		if err := os.Setenv("TMPDIR", tmp); err != nil {
			return err
		}
	}
	return os.MkdirAll(outDir, 0o755)
}

// env is the environment block of every result file.
type env struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// PinnedCPU is the one CPU the run was restricted to; empty when the
	// kernel refused.
	PinnedCPU  string            `json:"pinned_cpu"`
	Kernel     string            `json:"kernel"`
	Seed       int64             `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Trace      bool              `json:"trace"`
	BuildFlags map[string]string `json:"build_flags"`
}

func environment(cfg config) env {
	e := env{
		Commit: "unknown", GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), PinnedCPU: os.Getenv(pinnedEnv),
		Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		BuildFlags: map[string]string{},
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			} else {
				e.BuildFlags[s.Key] = s.Value
			}
		}
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			e.Kernel += string(rune(c))
		}
	}
	return e
}

// resultFile is what a run writes to bench/out: the printed result plus
// everything needed to audit it.
type resultFile struct {
	Workload string  `json:"workload"`
	Env      env     `json:"env"`
	Result   *result `json:"result"`
	// SetupS is every set-up round's time; the result reports the median.
	SetupS []float64 `json:"setup_s"`
	// SetupRawS is the same rounds as the wall clock saw them.
	SetupRawS []float64 `json:"setup_raw_s"`
	// Spread is the median, minimum and maximum over the windows of the
	// run, for the metrics computed per window.
	Spread map[string]stat `json:"spread,omitempty"`
	// RawP50Us and CalibUs are the median operation as the wall clock saw
	// it and the median calibration of the untraced run: what the scaling
	// to the reference speed started from.
	RawP50Us float64 `json:"raw_p50_us,omitempty"`
	CalibUs  float64 `json:"calib_us,omitempty"`
	// Operations is the number of timed operations per measurement.
	Operations []int `json:"operations"`
	// Failures lists the first failed operations with replay lines.
	Failures []string `json:"failures,omitempty"`
	// Pairs is the per-rule table of the exec workloads.
	Pairs []pairRow `json:"pairs,omitempty"`
	// SelfTimes and Trace belong to the traced run.
	SelfTimes     []selfRow `json:"self_times,omitempty"`
	SelfTimeTable string    `json:"self_time_table,omitempty"`
	Trace         string    `json:"trace,omitempty"`
}

// note adds a measurement's operations and failures to the file.
func (f *resultFile) note(ms *measurement) {
	f.Operations = append(f.Operations, len(ms.samples))
	f.Result.Attempted += len(ms.samples)
	f.Result.Failed += ms.failed
	for _, fl := range ms.failures {
		if len(f.Failures) < maxFailures {
			f.Failures = append(f.Failures, fl)
		}
	}
	if ms.pairs != nil {
		f.Pairs = ms.pairs
	}
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
