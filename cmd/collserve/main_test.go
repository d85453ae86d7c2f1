package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/serve"
)

// syncBuffer lets the test read run()'s stdout while the daemon
// goroutine is still writing to it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

var listenRE = regexp.MustCompile(`listening on (http://[^\s]+)`)

// startDaemon runs the serve mode on a free port and returns its base
// URL plus the exit-code channel.
func startDaemon(t *testing.T, stdout *syncBuffer, extra ...string) (string, chan int) {
	t.Helper()
	exit := make(chan int, 1)
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	go func() { exit <- run(args, stdout, stdout) }()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRE.FindStringSubmatch(stdout.String()); m != nil {
			return m[1], exit
		}
		select {
		case code := <-exit:
			t.Fatalf("daemon exited early with %d:\n%s", code, stdout.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatalf("daemon never announced its address:\n%s", stdout.String())
	return "", nil
}

func post(t *testing.T, base string, req serve.Request) serve.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	httpResp, err := http.Post(base+"/optimize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("POST: HTTP %d", httpResp.StatusCode)
	}
	var resp serve.Response
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestServeDrainOnSIGTERM is the daemon lifecycle test: serve real
// requests over a real socket, then SIGTERM and require a clean drain —
// exit 0, final statistics, and the goroutine watchdog passing.
func TestServeDrainOnSIGTERM(t *testing.T) {
	var out syncBuffer
	base, exit := startDaemon(t, &out)

	first := post(t, base, serve.Request{Program: "bcast ; scan(+)", M: 8})
	if first.Optimized == "" || first.Cached {
		t.Fatalf("first response: %+v", first)
	}
	again := post(t, base, serve.Request{Program: "bcast ; scan(+)", M: 8})
	if !again.Cached {
		t.Errorf("repeat request not served from cache")
	}

	// The client lives in the same process: park its keep-alive
	// goroutines so the daemon's leak watchdog only sees its own.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()

	if err := syscall.Kill(syscall.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	select {
	case code := <-exit:
		if code != 0 {
			t.Fatalf("exit %d after SIGTERM:\n%s", code, out.String())
		}
	case <-time.After(15 * time.Second):
		t.Fatalf("daemon did not drain:\n%s", out.String())
	}
	got := out.String()
	for _, want := range []string{"signal received, draining", "served 2 requests", "drained cleanly"} {
		if !strings.Contains(got, want) {
			t.Errorf("drain output missing %q:\n%s", want, got)
		}
	}
}

func TestBadFlagsExitTwo(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &out); code != 2 {
		t.Errorf("unknown flag: exit %d, want 2", code)
	}
	out.Reset()
	if code := run([]string{"-loadgen"}, &out, &out); code != 2 || !strings.Contains(out.String(), "flag provided but not defined: -loadgen") {
		t.Errorf("-loadgen: exit %d, want 2 for an unknown flag:\n%s", code, out.String())
	}
	out.Reset()
	if code := run([]string{"-h"}, &out, &out); code != 2 {
		t.Errorf("-h: exit %d, want 2", code)
	}
	if !strings.Contains(out.String(), "-cache-shards") {
		t.Errorf("-h did not print flag defaults:\n%s", out.String())
	}
	out.Reset()
	if code := run([]string{"stray"}, &out, &out); code != 2 {
		t.Errorf("stray positional arg: exit %d, want 2", code)
	}
}

func TestBadParamsFileExitsOne(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-params-file", filepath.Join(t.TempDir(), "missing.json")}, &out, &out)
	if code != 1 {
		t.Errorf("missing params file: exit %d, want 1", code)
	}
}

func TestListenFailureExitsOne(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-addr", "256.0.0.1:bad"}, &out, &out); code != 1 {
		t.Errorf("bad address: exit %d, want 1\n%s", code, out.String())
	}
}
