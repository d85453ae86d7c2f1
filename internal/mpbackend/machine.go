// Package mpbackend is the multi-process distributed backend: the shared
// rank of package rank over a link in which group members are separate OS
// processes connected by Unix domain sockets (type link). Where the
// native backend's goroutines share one address space — so a message is a
// reference hand-off and the per-word cost tw calibrates to ~0 — a rank
// here can only communicate by serializing values through the kernel, so
// every message pays a real per-byte cost and the §4.1 model's tw term
// finally becomes observable: rings and pipelines beat the butterfly at
// large blocks, as the paper's Parsytec numbers predict (see the
// multiproc section of CALIB_native.json).
//
// # Coordinator/worker protocol
//
// Closures cannot cross process boundaries, so jobs are named bodies
// (Register) with JSON parameters. The coordinator (Run) writes the job
// description to a scratch directory and re-executes the current binary
// once per rank with COLLMP_DIR/COLLMP_RANK set; MaybeWorker — which
// every coordinating binary calls first thing in main or TestMain —
// detects the variables, connects the socket mesh, runs the body, writes
// its result to out.<rank>.json, and exits. The coordinator collects the
// per-rank results and tears the directory down. One process group is
// spawned per job; measurement bodies amortize the spawn by looping
// repetitions internally with barrier-synchronized starts, mirroring the
// timing discipline of the in-process backends.
package mpbackend

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// DefaultTimeout bounds a job's wall time, coordinator and worker side.
const DefaultTimeout = 120 * time.Second

// Options tunes a coordinator run.
type Options struct {
	// Timeout bounds the whole job; 0 means DefaultTimeout. Workers arm
	// their own watchdog with the same bound.
	Timeout time.Duration
}

// RankResult is one rank's collected output.
type RankResult struct {
	// Result is the body's JSON-encoded return value.
	Result json.RawMessage
	// Msgs, Words and Ops are the rank's traffic and work counters.
	Msgs  int
	Words int
	Ops   float64
}

// Run executes the named body as an SPMD job across p freshly spawned
// rank processes and returns the per-rank results. params is marshaled to
// JSON and handed to every rank. Run fails if the body is not registered
// in this binary (the workers re-execute it, so registration here implies
// registration there), if any rank exits unhealthily or fails — the
// failure reported is the rank's that failed first, not one of the peers its
// dead links then took down — or if the job exceeds its timeout, in which
// case all ranks are killed.
func Run(body string, p int, params any, opt Options) ([]RankResult, error) {
	if p < 1 {
		return nil, fmt.Errorf("mpbackend: need at least 1 rank, got %d", p)
	}
	if _, ok := bodies[body]; !ok {
		return nil, fmt.Errorf("mpbackend: no body named %q", body)
	}
	timeout := opt.Timeout
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	raw, err := json.Marshal(params)
	if err != nil {
		return nil, fmt.Errorf("mpbackend: unmarshalable params: %v", err)
	}
	dir, err := os.MkdirTemp("", "collmp")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spec := jobSpec{Body: body, P: p, TimeoutSec: timeout.Seconds(), Params: raw}
	data, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(dir+"/job.json", data, 0o644); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("mpbackend: cannot locate own executable: %v", err)
	}
	cmds := make([]*exec.Cmd, p)
	stderrs := make([]bytes.Buffer, p)
	for r := 0; r < p; r++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			fmt.Sprintf("%s=%s", envDir, dir),
			fmt.Sprintf("%s=%d", envRank, r))
		cmd.Stderr = &stderrs[r]
		if err := cmd.Start(); err != nil {
			for _, c := range cmds[:r] {
				c.Process.Kill()
				c.Wait()
			}
			return nil, fmt.Errorf("mpbackend: spawning rank %d: %v", r, err)
		}
		cmds[r] = cmd
	}
	waitErrs := make(chan error, p)
	for r, cmd := range cmds {
		go func(r int, cmd *exec.Cmd) {
			if err := cmd.Wait(); err != nil {
				waitErrs <- fmt.Errorf("rank %d: %v%s", r, err, stderrTail(&stderrs[r]))
				return
			}
			waitErrs <- nil
		}(r, cmd)
	}
	deadline := time.NewTimer(timeout + 5*time.Second)
	defer deadline.Stop()
	var failures []string
	for done := 0; done < p; done++ {
		select {
		case err := <-waitErrs:
			if err != nil {
				failures = append(failures, err.Error())
			}
		case <-deadline.C:
			for _, cmd := range cmds {
				cmd.Process.Kill()
			}
			return nil, fmt.Errorf("mpbackend: job %q (p=%d) exceeded %v; ranks killed", body, p, timeout)
		}
	}
	if len(failures) > 0 {
		return nil, fmt.Errorf("mpbackend: job %q failed:\n  %s", body, strings.Join(failures, "\n  "))
	}
	out := make([]RankResult, p)
	var secondary error // a rank that only lost its link to a failed peer
	for r := 0; r < p; r++ {
		data, err := os.ReadFile(fmt.Sprintf("%s/out.%d.json", dir, r))
		if err != nil {
			return nil, fmt.Errorf("mpbackend: rank %d exited cleanly but wrote no result: %v", r, err)
		}
		var ro rankOut
		if err := json.Unmarshal(data, &ro); err != nil {
			return nil, fmt.Errorf("mpbackend: rank %d wrote a bad result: %v", r, err)
		}
		if ro.Err != "" {
			err := fmt.Errorf("mpbackend: rank %d: %s", r, ro.Err)
			if !ro.Secondary {
				return nil, err
			}
			if secondary == nil {
				secondary = err
			}
		}
		out[r] = RankResult{Result: ro.Result, Msgs: ro.Msgs, Words: ro.Words, Ops: ro.Ops}
	}
	if secondary != nil {
		return nil, secondary
	}
	return out, nil
}

// stderrTail renders the last lines of a failed rank's stderr for the
// error message.
func stderrTail(b *bytes.Buffer) string {
	s := strings.TrimSpace(b.String())
	if s == "" {
		return ""
	}
	lines := strings.Split(s, "\n")
	if len(lines) > 6 {
		lines = lines[len(lines)-6:]
	}
	return "\n    " + strings.Join(lines, "\n    ")
}

// Decode unmarshals every rank's body result into T.
func Decode[T any](results []RankResult) ([]T, error) {
	out := make([]T, len(results))
	for r, res := range results {
		if err := json.Unmarshal(res.Result, &out[r]); err != nil {
			return nil, fmt.Errorf("mpbackend: rank %d result: %v", r, err)
		}
	}
	return out, nil
}
