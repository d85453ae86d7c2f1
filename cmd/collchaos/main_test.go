package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunProgConforms drives the replay mode end to end: a small program
// swept under one profile must conform and exit 0.
func TestRunProgConforms(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-prog", "bcast ; scan(+)", "-p", "4", "-profile", "delay", "-seeds", "2",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s\nstdout:\n%s", code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "conformed") {
		t.Fatalf("summary missing from output:\n%s", out.String())
	}
}

// TestRunRandomConforms runs a tiny randomized sweep.
func TestRunRandomConforms(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-trials", "2", "-p", "4", "-profile", "reorder", "-seeds", "1",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, stderr:\n%s\nstdout:\n%s", code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "conformed") {
		t.Fatalf("summary missing from output:\n%s", out.String())
	}
}

// TestVerboseReportsEveryRun checks -v prints per-run ok lines.
func TestVerboseReportsEveryRun(t *testing.T) {
	var out, errOut bytes.Buffer
	code := run([]string{
		"-prog", "gather ; scatter", "-p", "3", "-profile", "loss", "-seeds", "1", "-v",
	}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ok   prog") {
		t.Fatalf("verbose run line missing:\n%s", out.String())
	}
}

// Usage errors must exit 2 without running anything.
func TestUsageErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"bad flag", []string{"-nosuchflag"}},
		{"positional args", []string{"bcast"}},
		{"unknown profile", []string{"-profile", "nosuch"}},
		// The chaos runs ride the native default transport; there is no
		// -transport flag to pick another.
		{"unknown transport", []string{"-transport", "copy"}},
		{"unparsable prog", []string{"-prog", "scan("}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := run(tc.args, &out, &errOut); code != 2 {
				t.Fatalf("exit %d, want 2; stderr:\n%s", code, errOut.String())
			}
		})
	}
}
