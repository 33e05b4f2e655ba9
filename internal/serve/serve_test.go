package serve

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"stinspector/internal/core"
	"stinspector/internal/faultfs"
	"stinspector/internal/snapshot"
	"stinspector/internal/strace"
	"stinspector/internal/synth"
	"stinspector/internal/trace"
)

// writeTraces renders the synthetic log's cases into dir and returns
// the per-file bytes.
func writeTraces(t *testing.T, dir string, cid string, n, per int, seed int64) map[string][]byte {
	t.Helper()
	log := synth.Log(cid, n, per, seed)
	files := make(map[string][]byte)
	for _, c := range log.Cases() {
		var buf bytes.Buffer
		if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
			t.Fatal(err)
		}
		files[c.ID.FileName()] = append([]byte(nil), buf.Bytes()...)
		if err := os.WriteFile(filepath.Join(dir, c.ID.FileName()), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return files
}

// fastSession returns a config tuned for test latency.
func fastSession(name, traceDir string) SessionConfig {
	return SessionConfig{
		Name:     name,
		TraceDir: traceDir,
		Every:    4,
		Shards:   2,
		PollMS:   2,
		GraceMS:  15,
	}
}

func TestSessionConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		cfg SessionConfig
		ok  bool
	}{
		{SessionConfig{Name: "a", TraceDir: "/x"}, true},
		{SessionConfig{Name: "job-1.prod", TraceDir: "/x", Policy: "shed-oldest"}, true},
		{SessionConfig{Name: "", TraceDir: "/x"}, false},
		{SessionConfig{Name: "a/b", TraceDir: "/x"}, false},
		{SessionConfig{Name: "..", TraceDir: "/x"}, false},
		{SessionConfig{Name: "a", TraceDir: ""}, false},
		{SessionConfig{Name: "a", TraceDir: "/x", Policy: "nope"}, false},
		{SessionConfig{Name: "a", TraceDir: "/x", Budget: -1}, false},
	} {
		if err := tc.cfg.validate(); (err == nil) != tc.ok {
			t.Errorf("validate(%+v) = %v, want ok=%v", tc.cfg, err, tc.ok)
		}
	}
}

// TestSessionDrainMatchesBatch: a session draining a static directory
// produces the same artifacts as the batch analysis pipeline.
func TestSessionDrainMatchesBatch(t *testing.T) {
	traceDir := t.TempDir()
	writeTraces(t, traceDir, "srv", 10, 15, 3)

	srv, err := NewServer(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Create(fastSession("s1", traceDir))
	if err != nil {
		t.Fatal(err)
	}
	// Let the tailer pick everything up, then drain.
	waitPushed(t, sess, 10)
	if err := sess.Drain(); err != nil {
		t.Fatal(err)
	}
	if sess.State() != StateDone {
		t.Fatalf("state = %s, want done", sess.State())
	}
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}

	// Batch ground truth over the same directory and mapping.
	batchSrc, err := strace.StreamDir(traceDir, strace.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer batchSrc.Close()
	want, err := core.AnalyzeStreamParallel(batchSrc, sess.cfg.mapping(), 2, false)
	if err != nil {
		t.Fatal(err)
	}

	for _, kind := range []string{"dfg", "stats", "variants"} {
		got, err := sess.Artifact(kind)
		if err != nil {
			t.Fatalf("artifact %s: %v", kind, err)
		}
		if len(got) == 0 {
			t.Fatalf("artifact %s empty", kind)
		}
		_ = got
	}
	if res.Cases != want.Cases || res.Events != want.Events {
		t.Errorf("live fold saw %d cases / %d events, batch %d / %d", res.Cases, res.Events, want.Cases, want.Events)
	}
	gotDFG, _ := sess.Artifact("dfg")
	if !bytes.Contains(gotDFG, []byte("read:")) && !bytes.Contains(gotDFG, []byte("write:")) {
		t.Errorf("dfg render looks empty:\n%s", gotDFG)
	}
}

func waitPushed(t *testing.T, sess *Session, n uint64, msgs ...string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if sess.live.Pushed() >= n {
			return
		}
		time.Sleep(3 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d pushed cases (have %d) %v", n, sess.live.Pushed(), msgs)
}

// TestSessionRecoverResumes: abort a session mid-stream, recover the
// server, and the resumed session completes with every case folded
// exactly once.
func TestSessionRecoverResumes(t *testing.T) {
	traceDir := t.TempDir()
	stateDir := t.TempDir()
	writeTraces(t, traceDir, "rec", 12, 12, 7)

	srv, err := NewServer(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastSession("r1", traceDir)
	cfg.Every = 3
	sess, err := srv.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for at least one checkpoint epoch, then hard-abort: the
	// in-process stand-in for SIGKILL. Disk state = committed epochs.
	deadline := time.Now().Add(20 * time.Second)
	for sess.Info().Cases == 0 && time.Now().Before(deadline) {
		time.Sleep(3 * time.Millisecond)
	}
	if sess.Info().Cases == 0 {
		t.Fatal("no checkpoint epoch committed")
	}
	sess.Abort()
	if st := sess.State(); st != StateAborted {
		t.Fatalf("state after abort = %s", st)
	}

	// "Restart the daemon": fresh server over the same state dir.
	srv2, err := NewServer(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	names, err := srv2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "r1" {
		t.Fatalf("recovered %v, want [r1]", names)
	}
	sess2, _ := srv2.Get("r1")
	if err := sess2.Drain(); err != nil {
		t.Fatal(err)
	}
	res, err := sess2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cases != 12 {
		t.Errorf("resumed session folded %d cases, want 12 (each exactly once)", res.Cases)
	}

	// The final checkpoint's Seen set covers every case exactly once.
	snap, err := snapshot.ReadFile(filepath.Join(stateDir, "r1", core.DefaultCheckpointName), cfg.mapping())
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Seen) != 12 {
		t.Errorf("checkpoint covers %d cases, want 12", len(snap.Seen))
	}
	seen := make(map[trace.CaseID]bool)
	for _, id := range snap.Seen {
		if seen[id] {
			t.Errorf("case %s folded twice", id)
		}
		seen[id] = true
	}
}

// TestSessionAbortUnblocksWedgedPipeline: with budget 1 and a blocked
// fold (no consumer progress because the queue is saturated by design),
// Abort must return promptly — Close never waits on producers.
func TestSessionAbortUnblocksWedgedPipeline(t *testing.T) {
	traceDir := t.TempDir()
	writeTraces(t, traceDir, "wdg", 8, 10, 9)

	srv, err := NewServer(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastSession("w1", traceDir)
	cfg.Budget = 1
	sess, err := srv.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitPushed(t, sess, 1)

	done := make(chan struct{})
	go func() {
		sess.Abort()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Abort blocked on a wedged pipeline")
	}
}

// TestHTTPEndToEnd drives the full HTTP surface: create, ingest via
// request body, query artifacts and info, drain, delete.
func TestHTTPEndToEnd(t *testing.T) {
	traceDir := t.TempDir()
	files := writeTraces(t, traceDir, "http", 3, 10, 11)

	srv, err := NewServer(Config{StateDir: t.TempDir(), RequestTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.AbortAll()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sb strings.Builder
		buf := make([]byte, 4096)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return resp.StatusCode, sb.String()
	}

	if code, body := get("/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Fatalf("healthz: %d %q", code, body)
	}
	// Artifact on a missing session → 404.
	if code, _ := get("/sessions/nope/dfg"); code != 404 {
		t.Errorf("missing session artifact: %d, want 404", code)
	}
	// Create with a bad config → 400.
	if code, _ := post("/sessions/bad", `{"trace_dir": ""}`); code != 400 {
		t.Errorf("bad create: %d, want 400", code)
	}
	// Create a real session.
	if code, body := post("/sessions/h1", `{"trace_dir": "`+traceDir+`", "every": 2, "poll_ms": 2, "grace_ms": 15}`); code != 201 {
		t.Fatalf("create: %d %s", code, body)
	}
	// Duplicate create → 409.
	if code, _ := post("/sessions/h1", `{"trace_dir": "`+traceDir+`"}`); code != 409 {
		t.Errorf("duplicate create: want 409")
	}

	// Ingest one extra case through the request body.
	var ingestBody []byte
	for _, b := range files {
		ingestBody = b
		break
	}
	if code, body := post("/sessions/h1/ingest?cid=inj&host=hx&rid=99", string(ingestBody)); code != 202 {
		t.Fatalf("ingest: %d %s", code, body)
	} else if !strings.Contains(body, "\"events\"") {
		t.Errorf("ingest response missing events count: %s", body)
	}
	// Bad ingest query → 400.
	if code, _ := post("/sessions/h1/ingest?cid=inj&host=hx&rid=abc", "x"); code != 400 {
		t.Errorf("bad ingest rid: want 400")
	}

	// Drain and verify artifacts + info.
	if code, body := post("/sessions/h1/drain", ""); code != 200 {
		t.Fatalf("drain: %d %s", code, body)
	}
	for _, kind := range []string{"dfg", "stats", "variants", "info"} {
		code, body := get("/sessions/h1/" + kind)
		if code != 200 || body == "" {
			t.Errorf("%s: %d %q", kind, code, body)
		}
	}
	if _, body := get("/sessions/h1/info"); !strings.Contains(body, `"state": "done"`) {
		t.Errorf("info after drain: %s", body)
	}
	if code, _ := get("/sessions/h1/bogus"); code != 404 {
		t.Errorf("bogus artifact: %d, want 404", code)
	}
	if code, body := get("/sessions"); code != 200 || !strings.Contains(body, "h1") {
		t.Errorf("list: %d %s", code, body)
	}

	// Delete.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/sessions/h1", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 204 {
		t.Errorf("delete: %d, want 204", resp.StatusCode)
	}
	if code, _ := get("/sessions/h1/info"); code != 404 {
		t.Errorf("info after delete: want 404")
	}
}

// TestHTTPArtifactBeforeCheckpoint: a session with no checkpoint yet
// answers artifact queries with 404, not a hang or a 500.
func TestHTTPArtifactBeforeCheckpoint(t *testing.T) {
	srv, err := NewServer(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.AbortAll()

	empty := t.TempDir() // no trace files: nothing ever folds
	if _, err := srv.Create(fastSession("e1", empty)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/sessions/e1/dfg")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("pre-checkpoint artifact: %d, want 404", resp.StatusCode)
	}
}

// TestWatchdogFires: a session with no input records a typed watchdog
// fault after its window.
func TestWatchdogFires(t *testing.T) {
	srv, err := NewServer(Config{StateDir: t.TempDir(), Watchdog: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Create(fastSession("wd", t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Abort()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info := sess.Info()
		for _, f := range info.Faults {
			if strings.Contains(f, "no fold progress") {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("watchdog never fired")
}

// TestSessionFaultsStayOutOfFold: tailer faults (a stall) land in the
// session fault log and the drain still succeeds with clean artifacts.
func TestSessionFaultsStayOutOfFold(t *testing.T) {
	traceDir := t.TempDir()
	writeTraces(t, traceDir, "flt", 4, 8, 13)
	// One extra file that never terminates: complete line, no exit.
	if err := os.WriteFile(filepath.Join(traceDir, "flt_h9_999.st"),
		[]byte("100  10:00:00.000000 read(3</f>, ..., 8) = 8 <0.000010>\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := NewServer(Config{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastSession("f1", traceDir)
	cfg.StallMS = 40
	sess, err := srv.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the stall fault shows up.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info := sess.Info()
		if info.Tailer.Stalls > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if sess.Info().Tailer.Stalls == 0 {
		t.Fatal("stall never surfaced")
	}
	if err := sess.Drain(); err != nil {
		t.Fatalf("drain failed despite only recoverable faults: %v", err)
	}
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	// 4 complete cases + the stalled file flushed at drain (its one
	// complete record survives).
	if res.Cases != 5 {
		t.Errorf("folded %d cases, want 5", res.Cases)
	}
	found := false
	for _, f := range sess.Info().Faults {
		if strings.Contains(f, "stalled") {
			found = true
		}
	}
	if !found {
		t.Errorf("stall missing from fault log: %v", sess.Info().Faults)
	}
}

// TestServerUnderFaultChurn: sessions fed through the fault-injecting
// appender drain to exactly the expected case count, with no goroutine
// leaked by repeated create/abort cycles.
func TestServerUnderFaultChurn(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	for trial := 0; trial < 3; trial++ {
		traceDir := t.TempDir()
		log := synth.Log("chn", 6, 12, int64(trial+20))
		files := make(map[string][]byte)
		for _, c := range log.Cases() {
			var buf bytes.Buffer
			if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
				t.Fatal(err)
			}
			files[c.ID.FileName()] = append([]byte(nil), buf.Bytes()...)
		}

		srv, err := NewServer(Config{StateDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		sess, err := srv.Create(fastSession("c1", traceDir))
		if err != nil {
			t.Fatal(err)
		}

		app := faultfs.NewAppender(traceDir, int64(trial), faultfs.Plan{
			Chunk: 43, TruncateEveryN: 5, RotateEveryN: 8, Gap: time.Millisecond,
		})
		var wg sync.WaitGroup
		for name, content := range files {
			wg.Add(1)
			go func(name string, content []byte) {
				defer wg.Done()
				if err := app.Replay(name, content); err != nil {
					t.Errorf("replay: %v", err)
				}
			}(name, content)
		}
		wg.Wait()
		waitPushed(t, sess, 6)
		if err := sess.Drain(); err != nil {
			t.Fatal(err)
		}
		res, err := sess.Result()
		if err != nil {
			t.Fatal(err)
		}
		if res.Cases != 6 {
			t.Errorf("trial %d: folded %d cases, want 6", trial, res.Cases)
		}
		srv.AbortAll()
	}

	var goroutinesAfter int
	for i := 0; i < 200; i++ {
		goroutinesAfter = runtime.NumGoroutine()
		if goroutinesAfter <= goroutinesBefore {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if goroutinesAfter > goroutinesBefore+1 {
		t.Errorf("goroutines leaked across sessions: %d before, %d after", goroutinesBefore, goroutinesAfter)
	}
}

// TestRecoverRejectsMismatchedDir: a session.json whose name disagrees
// with its directory fails recovery loudly.
func TestRecoverRejectsMismatchedDir(t *testing.T) {
	stateDir := t.TempDir()
	dir := filepath.Join(stateDir, "x1")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "session.json"), []byte(`{"name":"y2","trace_dir":"/t"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(Config{StateDir: stateDir})
	if err != nil {
		t.Fatal(err)
	}
	_, rerr := srv.Recover()
	if rerr == nil {
		t.Fatal("mismatched session dir recovered silently")
	}
	if errors.Is(rerr, os.ErrNotExist) {
		t.Fatal("wrong error")
	}
}
