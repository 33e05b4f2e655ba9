package serve

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"stinspector/internal/core"
	"stinspector/internal/faultfs"
	"stinspector/internal/strace"
	"stinspector/internal/synth"
)

var kinds = []string{"dfg", "stats", "variants", "behavior"}

// fileArtifacts renders every artifact kind from the checkpoint file,
// as MergeSnapshotFiles finalizes it.
func fileArtifacts(t *testing.T, sess *Session) map[string][]byte {
	t.Helper()
	res, err := core.MergeSnapshotFiles(sess.m, filepath.Join(sess.dir, core.DefaultCheckpointName))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(kinds))
	for _, kind := range kinds {
		out[kind] = artifactKinds[kind](res)
	}
	return out
}

// waitGeneration waits until the session's fold has published the
// durable state of at least n cases.
func waitGeneration(t *testing.T, sess *Session, n int) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if gen, ok := sess.view.Generation(); ok && gen >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	gen, ok := sess.view.Generation()
	t.Fatalf("timed out waiting for generation %d (have %d, ok=%v)", n, gen, ok)
}

// checkArtifacts asserts every kind the session serves is want at gen.
func checkArtifacts(t *testing.T, sess *Session, gen int, want map[string][]byte) {
	t.Helper()
	for _, kind := range kinds {
		body, g, err := sess.artifact(kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if g != gen || !bytes.Equal(body, want[kind]) {
			t.Errorf("%s: served generation %d, want %d; bytes equal: %v", kind, g, gen, bytes.Equal(body, want[kind]))
		}
	}
}

// A running session answers from memory: with the feed paused after a
// generation, garbage in place of the checkpoint file changes no
// artifact, including kinds first rendered after the file was replaced.
func TestArtifactServedFromMemory(t *testing.T) {
	traceDir := t.TempDir()
	writeTraces(t, traceDir, "mem", 8, 12, 5)
	srv, err := NewServer(Config{StateDir: t.TempDir(), Watchdog: -1})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := srv.Create(fastSession("m1", traceDir))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.abort()
	waitGeneration(t, sess, 8)
	want := fileArtifacts(t, sess)
	if body, _ := sess.Artifact("dfg"); !bytes.Equal(body, want["dfg"]) {
		t.Fatal("dfg differs from the checkpoint file before it was replaced")
	}
	if err := os.WriteFile(filepath.Join(sess.dir, core.DefaultCheckpointName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	checkArtifacts(t, sess, 8, want)
}

// A failed checkpoint write is never served: while the write fails and
// after, every answer is the last durable generation or an error, and
// once the fold has failed the checkpoint file is what answers.
func TestFailedCheckpointWriteNeverServed(t *testing.T) {
	traceDir := t.TempDir()
	writeTraces(t, traceDir, "fw", 4, 12, 6)
	srv, err := NewServer(Config{StateDir: t.TempDir(), Watchdog: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sess, err := srv.Create(fastSession("f1", traceDir))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.abort()
	waitGeneration(t, sess, 4)
	path := filepath.Join(sess.dir, core.DefaultCheckpointName)
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := fileArtifacts(t, sess)
	if body, _ := sess.Artifact("dfg"); !bytes.Equal(body, want["dfg"]) {
		t.Fatal("dfg differs from the checkpoint file")
	}
	// A non-empty directory in the checkpoint's place makes the next
	// write's rename fail after the epoch was merged in memory.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			kind := kinds[i%len(kinds)]
			body, gen, err := sess.artifact(kind)
			if err != nil {
				continue
			}
			served++
			if gen != 4 || !bytes.Equal(body, want[kind]) {
				t.Errorf("%s served at generation %d during the failed write; want generation 4's bytes", kind, gen)
				return
			}
		}
	}()
	writeTraces(t, traceDir, "fw2", 4, 12, 7)
	deadline := time.Now().Add(20 * time.Second)
	for sess.Info().State != stateFailed && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if sess.Info().State != stateFailed {
		t.Fatalf("state %s after a failed checkpoint write, want failed", sess.Info().State)
	}
	if served == 0 {
		t.Error("no query was answered while the write was failing")
	}

	status := func(kind string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/sessions/f1/" + kind)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	// The view is stale, so the file answers: a directory cannot be read
	// and garbage cannot be decoded, both server faults.
	if code, _ := status("stats"); code != http.StatusInternalServerError {
		t.Errorf("unreadable checkpoint: %d, want 500", code)
	}
	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _ := status("stats"); code != http.StatusInternalServerError {
		t.Errorf("undecodable checkpoint: %d, want 500", code)
	}
	if err := os.WriteFile(path, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	checkArtifacts(t, sess, 4, want)
}

// A recovered session answers from memory before its first new epoch:
// once its fold has loaded the checkpoint, garbage in the file changes
// nothing.
func TestResumedSessionServesFromMemory(t *testing.T) {
	traceDir, stateDir := t.TempDir(), t.TempDir()
	writeTraces(t, traceDir, "res", 6, 12, 8)
	srv, err := NewServer(Config{StateDir: stateDir, Watchdog: -1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := fastSession("r1", traceDir)
	cfg.Every = 3
	sess, err := srv.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitGeneration(t, sess, 6)
	sess.abort()
	want := fileArtifacts(t, sess)

	srv2, err := NewServer(Config{StateDir: stateDir, Watchdog: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.Recover(); err != nil {
		t.Fatal(err)
	}
	sess2, _ := srv2.Get("r1")
	defer sess2.abort()
	waitGeneration(t, sess2, 6)
	if err := os.WriteFile(filepath.Join(sess2.dir, core.DefaultCheckpointName), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	checkArtifacts(t, sess2, 6, want)
}

// TestServedGenerationsMatchCheckpoints is the serving gate: at every
// generation, across epochs and under fault churn, each artifact a
// running session serves is byte-equal to rendering that generation's
// checkpoint file; and every response a concurrent HTTP client got, at
// whatever generation its ETag names, is that generation's bytes.
func TestServedGenerationsMatchCheckpoints(t *testing.T) {
	const every, epochs = 3, 4
	log := synth.Log("gen", every*epochs, 20, 31)
	cases := log.Cases()
	traceDir := t.TempDir()
	srv, err := NewServer(Config{StateDir: t.TempDir(), Watchdog: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cfg := fastSession("g1", traceDir)
	cfg.Every = every
	sess, err := srv.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.abort()

	// Two concurrent clients, so queries of one (generation, kind) also
	// meet while it renders.
	type response struct {
		kind string
		gen  int
		body []byte
	}
	const clients = 2
	responses := make([][]response, clients)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				kind := kinds[(i/2+c)%len(kinds)]
				resp, err := http.Get(ts.URL + "/sessions/g1/" + kind)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Error(err)
					return
				}
				if resp.StatusCode == http.StatusNotFound && len(responses[c]) == 0 {
					continue // no checkpoint yet
				}
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s: status %d: %s", kind, resp.StatusCode, body)
					return
				}
				gen, err := strconv.Atoi(strings.Trim(resp.Header.Get("ETag"), `"`))
				if err != nil {
					t.Errorf("%s: ETag %q", kind, resp.Header.Get("ETag"))
					return
				}
				if n := resp.Header.Get("Content-Length"); n != strconv.Itoa(len(body)) {
					t.Errorf("%s: Content-Length %s for %d bytes", kind, n, len(body))
				}
				responses[c] = append(responses[c], response{kind, gen, body})
			}
		}(c)
	}

	app := faultfs.NewAppender(traceDir, 5, faultfs.Plan{
		Chunk: 43, TruncateEveryN: 4, RotateEveryN: 5, Gap: 200 * time.Microsecond,
	})
	truth := make(map[int]map[string][]byte)
	for e := 1; e <= epochs; e++ {
		for _, c := range cases[(e-1)*every : e*every] {
			var buf bytes.Buffer
			if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
				t.Fatal(err)
			}
			if err := app.Replay(c.ID.FileName(), buf.Bytes()); err != nil {
				t.Fatal(err)
			}
		}
		gen := e * every
		waitGeneration(t, sess, gen)
		truth[gen] = fileArtifacts(t, sess)
		checkArtifacts(t, sess, gen, truth[gen])
	}
	close(stop)
	wg.Wait()
	if app.Truncations.Load() == 0 || app.Rotations.Load() == 0 {
		t.Errorf("churn fired %d truncations and %d rotations; want both", app.Truncations.Load(), app.Rotations.Load())
	}
	all := slices.Concat(responses...)
	if len(all) == 0 {
		t.Fatal("the HTTP clients got no artifact")
	}
	for _, r := range all {
		want, ok := truth[r.gen]
		if !ok {
			t.Errorf("%s served at generation %d, which no checkpoint had", r.kind, r.gen)
			continue
		}
		if !bytes.Equal(r.body, want[r.kind]) {
			t.Errorf("%s at generation %d differs from that generation's checkpoint file", r.kind, r.gen)
		}
	}

	if err := sess.Drain(); err != nil {
		t.Fatal(err)
	}
	checkArtifacts(t, sess, every*epochs, truth[every*epochs])
}

// Artifact responses carry the generation as an ETag; a matching
// If-None-Match gets 304 with no body, a stale one the new bytes, and an
// unknown kind 404.
func TestHTTPConditionalGet(t *testing.T) {
	traceDir := t.TempDir()
	writeTraces(t, traceDir, "etag", 4, 12, 9)
	srv, err := NewServer(Config{StateDir: t.TempDir(), Watchdog: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	sess, err := srv.Create(fastSession("e1", traceDir))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.abort()
	waitGeneration(t, sess, 4)

	get := func(kind, inm string) (*http.Response, []byte) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/sessions/e1/"+kind, nil)
		if inm != "" {
			req.Header.Set("If-None-Match", inm)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}
	resp, body := get("dfg", "")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != `"4"` {
		t.Fatalf("dfg: %d, ETag %q; want 200, \"4\"", resp.StatusCode, resp.Header.Get("ETag"))
	}
	if want, _ := sess.Artifact("dfg"); !bytes.Equal(body, want) {
		t.Error("HTTP body differs from Session.Artifact")
	}
	for _, inm := range []string{`"4"`, `W/"4"`, `"3", "4"`, `*`} {
		if resp, body := get("dfg", inm); resp.StatusCode != http.StatusNotModified || len(body) != 0 {
			t.Errorf("If-None-Match %s: %d with %d bytes; want 304, empty", inm, resp.StatusCode, len(body))
		}
	}
	if resp, _ := get("dfg", `"3"`); resp.StatusCode != http.StatusOK {
		t.Errorf("stale If-None-Match: %d, want 200", resp.StatusCode)
	}
	if resp, _ := get("bogus", `"4"`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown kind: %d, want 404", resp.StatusCode)
	}
	if _, err := sess.Artifact("bogus"); !errors.Is(err, errUnknownArtifact) {
		t.Errorf("unknown kind: %v, want errUnknownArtifact", err)
	}

	writeTraces(t, traceDir, "etag2", 4, 12, 10)
	waitGeneration(t, sess, 8)
	if resp, body := get("dfg", `"4"`); resp.StatusCode != http.StatusOK || resp.Header.Get("ETag") != `"8"` || len(body) == 0 {
		t.Errorf("after a new generation: %d, ETag %q; want 200, \"8\"", resp.StatusCode, resp.Header.Get("ETag"))
	}
}

// Concurrent queries of one (generation, kind) share one render, and a
// newer generation replaces the cached one.
func TestArtifactCacheRendersOnce(t *testing.T) {
	var c artifactCache
	var renders atomic.Int32
	render := func(body string) func() []byte {
		return func() []byte {
			renders.Add(1)
			time.Sleep(5 * time.Millisecond)
			return []byte(body)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := c.get(3, "dfg", render("g3")); string(got) != "g3" {
				t.Errorf("get = %q", got)
			}
		}()
	}
	wg.Wait()
	if n := renders.Load(); n != 1 {
		t.Fatalf("8 concurrent queries rendered %d times, want 1", n)
	}
	if got, ok := c.cached(3, "dfg"); !ok || string(got) != "g3" {
		t.Errorf("cached(3) = %q, %v", got, ok)
	}
	if _, ok := c.cached(3, "stats"); ok {
		t.Error("a kind never rendered is cached")
	}
	if got := c.get(5, "dfg", render("g5")); string(got) != "g5" {
		t.Errorf("newer generation: %q", got)
	}
	if got, ok := c.cached(5, "dfg"); !ok || string(got) != "g5" {
		t.Errorf("cached(5) = %q, %v", got, ok)
	}
	if _, ok := c.cached(3, "dfg"); ok {
		t.Error("a replaced generation is still cached")
	}
}
