package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// benchmarkFile is the part of BENCHMARK.json the A/A mode reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// child runs one workload in a process of its own, as the driver does,
// passes its report through and returns the result line.
func child(exe string, cfg config) (*result, error) {
	cmd := exec.Command(exe,
		"--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", strconv.Itoa(b2i(cfg.trace)))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", cfg.workload, cfg.seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
	fmt.Println()
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", cfg.workload, cfg.seed, err)
	}
	if !res.Correct {
		return &res, fmt.Errorf("%s seed %d: %d of %d operations failed", cfg.workload, cfg.seed, res.Failed, res.Attempted)
	}
	return &res, nil
}

// quartiles are the cut points Python's statistics.quantiles(xs, n=4)
// returns (its default, exclusive method): the driver judges spreads with
// them, so the A/A mode does too.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		j = min(max(j, 1), n-1)
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spreadRow is one metric of one workload over the A/A runs.
type spreadRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	// Spread is the interquartile range over the median.
	Spread float64 `json:"spread"`
	Bound  float64 `json:"bound"`
	// Within is false when the spread exceeds the bound; setup_s is
	// reported but, as in the driver, never fails the run.
	Within bool `json:"within"`
}

// runAll is the mode without --workload. With repeat = 0 it runs every
// workload once untraced and once traced. With repeat > 0 it is the A/A
// check: every workload repeat times untraced, each time with another
// seed, the spread of every end-to-end metric against its bound.
func runAll(cfg config, repeat int) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	if repeat == 0 {
		for _, w := range workloads {
			for _, trace := range []bool{false, true} {
				c := cfg
				c.workload, c.trace = w.name, trace
				if _, err := child(exe, c); err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					code = 1
				}
			}
		}
		return code
	}
	if repeat < 2 {
		fmt.Fprintln(os.Stderr, "bench: -repeat needs at least 2 runs to have a spread")
		return 2
	}
	var decl benchmarkFile
	data, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(data, &decl)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: reading the bounds:", err)
		return 1
	}
	var rows []spreadRow
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < repeat; i++ {
			c := cfg
			c.workload, c.seed, c.trace = w.name, cfg.seed+int64(i), false
			res, err := child(exe, c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			for name, m := range res.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range decl.EndToEnd {
			q1, q2, q3 := quartiles(values[d.Name])
			row := spreadRow{Workload: w.name, Metric: d.Name, Values: values[d.Name], Median: q2, Spread: (q3 - q1) / q2, Bound: d.Bound}
			row.Within = row.Spread <= row.Bound || d.Name == "setup_s"
			if !row.Within {
				code = 1
			}
			rows = append(rows, row)
		}
	}
	fmt.Printf("%-16s %-16s %14s %9s %7s  %s\n", "workload", "metric", "median", "spread", "bound", "")
	for _, r := range rows {
		verdict := "ok"
		switch {
		case !r.Within:
			verdict = "EXCEEDS THE BOUND"
		case r.Spread > r.Bound/3:
			verdict = "above a third of the bound"
		}
		fmt.Printf("%-16s %-16s %14.6g %8.2f%% %6.0f%%  %s\n", r.Workload, r.Metric, r.Median, 100*r.Spread, 100*r.Bound, verdict)
	}
	out, err := json.MarshalIndent(map[string]any{"env": environment(cfg), "runs": repeat, "rows": rows}, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, fmt.Sprintf("aa-seed%d.json", cfg.seed)), append(out, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return code
}
