package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"stinspector/internal/cliutil"
	"stinspector/internal/strace"
	"stinspector/internal/synth"
)

// TestRunUsageErrors: every command-line mistake is classified as a
// usage error (exit 2), never a runtime failure.
func TestRunUsageErrors(t *testing.T) {
	state := t.TempDir()
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"missing state", []string{}},
		{"operand", []string{"-state", state, "extra"}},
		{"bad policy", []string{"-state", state, "-policy", "newest-first"}},
		{"negative every", []string{"-state", state, "-every", "-1"}},
		{"negative budget", []string{"-state", state, "-budget", "-2"}},
		{"negative shards", []string{"-state", state, "-shards", "-3"}},
		{"zero request timeout", []string{"-state", state, "-request-timeout", "0s"}},
		{"zero drain timeout", []string{"-state", state, "-drain-timeout", "0s"}},
		{"unknown flag", []string{"-state", state, "-frobnicate"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, nil)
			if err == nil {
				t.Fatal("accepted")
			}
			if code := cliutil.Report(io.Discard, "test", err); code != 2 {
				t.Errorf("exit code = %d, want 2 (err: %v)", code, err)
			}
		})
	}
}

func TestRunHelpIsSuccess(t *testing.T) {
	if code := cliutil.Report(io.Discard, "test", run([]string{"-h"}, nil)); code != 0 {
		t.Errorf("-h exit code = %d, want 0", code)
	}
}

// TestRunServeIngestSigterm is the daemon's lifecycle in one test:
// start on an ephemeral port, create a session, ingest cases over
// HTTP, query artifacts, SIGTERM, and assert a clean exit with a
// non-empty durable snapshot on disk.
func TestRunServeIngestSigterm(t *testing.T) {
	state := t.TempDir()
	traceDir := t.TempDir()

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-addr", "127.0.0.1:0", "-state", state,
			"-every", "2", "-policy", "block", "-watchdog", "-1s",
		}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	post := func(path, body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(base+path, "application/octet-stream", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp, buf.String()
	}

	cfg := fmt.Sprintf(`{"trace_dir": %q, "grace_ms": 15, "poll_ms": 2}`, traceDir)
	resp, body := post("/sessions/live", cfg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}

	// Ingest four synthetic cases through the request-body path.
	log := synth.Log("smoke", 4, 12, 3)
	for _, c := range log.Cases() {
		var buf bytes.Buffer
		if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
			t.Fatal(err)
		}
		url := fmt.Sprintf("/sessions/live/ingest?cid=%s&host=%s&rid=%d", c.ID.CID, c.ID.Host, c.ID.RID)
		resp, body := post(url, buf.String())
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("ingest %s: %d %s", c.ID.FileName(), resp.StatusCode, body)
		}
	}

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, buf.String()
	}
	if code, body := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz: %d %s", code, body)
	}
	if code, body := get("/sessions/live/info"); code != http.StatusOK || !strings.Contains(body, `"name"`) {
		t.Errorf("info: %d %s", code, body)
	}

	// Wait until all four cases are folded past the checkpoint epoch so
	// shutdown has durable work to finalize.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, body := get("/sessions/live/info")
		var info struct {
			Cases int `json:"cases"`
		}
		json.Unmarshal([]byte(body), &info)
		if info.Cases >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cases never folded: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit after SIGTERM: %v (want nil)", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit after SIGTERM")
	}

	fi, err := os.Stat(filepath.Join(state, "live", "checkpoint.sts"))
	if err != nil || fi.Size() == 0 {
		t.Errorf("final snapshot missing or empty after drain (err %v)", err)
	}
}

// TestRunRecoverAnnounces: restarting over a state directory with a
// persisted session recovers it and says so.
func TestRunRecoverAnnounces(t *testing.T) {
	state := t.TempDir()
	traceDir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(state, "old"), 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := fmt.Sprintf(`{"name": "old", "trace_dir": %q}`+"\n", traceDir)
	if err := os.WriteFile(filepath.Join(state, "old", "session.json"), []byte(cfg), 0o644); err != nil {
		t.Fatal(err)
	}

	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-state", state, "-watchdog", "-1s"}, ready)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	resp, err := http.Get(base + "/sessions/old/info")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("recovered session not served: %d", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("exit after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not exit")
	}
}
