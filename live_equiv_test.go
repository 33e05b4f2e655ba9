package stinspector

// Live kill-and-restart equivalence: the acceptance bar of the serving
// layer. A session tailing a trace directory that is being written
// under fault-injection churn (chunked appends, truncations,
// rotations), killed at random epochs and recovered from its
// checkpoint, must end with final artifacts identical to both an
// uninterrupted session over the same traces and a batch streaming
// fold over the same trace bytes. This extends the checkpoint
// equivalence suite (snapshot_equiv_test.go) to the live path, where
// cases arrive in completion order rather than CaseID order.

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"stinspector/internal/faultfs"
	"stinspector/internal/serve"
	"stinspector/internal/strace"
	"stinspector/internal/synth"
	"stinspector/internal/trace"
)

// liveSessionConfig is the shared session shape of the equivalence
// runs: frequent checkpoints so kills land mid-corpus, fast follower
// cadence so the test stays quick, blocking backpressure so nothing is
// shed and full equivalence is well-defined.
func liveSessionConfig(name, traceDir string) serve.SessionConfig {
	return serve.SessionConfig{
		Name:     name,
		TraceDir: traceDir,
		Policy:   "block",
		Every:    3,
		Shards:   2,
		PollMS:   2,
		GraceMS:  15,
	}
}

func liveServer(t *testing.T, stateDir string) *serve.Server {
	t.Helper()
	srv, err := serve.NewServer(serve.Config{StateDir: stateDir, Watchdog: -1})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// replayChurn writes every case of files into dir through the seeded
// fault-injection appender: chunked appends with bounded truncation
// rollbacks and remove-and-recreate rotations, converging on the exact
// trace bytes.
func replayChurn(t *testing.T, dir string, cases []*trace.Case, files map[string][]byte) {
	t.Helper()
	app := faultfs.NewAppender(dir, 11, faultfs.Plan{
		Chunk:          48,
		Gap:            300 * time.Microsecond,
		TruncateEveryN: 6,
		RotateEveryN:   9,
	})
	for _, c := range cases {
		name := c.ID.FileName()
		if err := app.Replay(name, files[name]); err != nil {
			t.Errorf("churn replay %s: %v", name, err)
			return
		}
	}
	if app.Truncations.Load() == 0 || app.Rotations.Load() == 0 {
		t.Errorf("churn plan fired truncations=%d rotations=%d; the kill-restart run saw no faults",
			app.Truncations.Load(), app.Rotations.Load())
	}
}

func sessionArtifacts(t *testing.T, sess *serve.Session) string {
	t.Helper()
	var b strings.Builder
	for _, kind := range []string{"dfg", "stats", "variants"} {
		a, err := sess.Artifact(kind)
		if err != nil {
			t.Fatalf("artifact %s: %v", kind, err)
		}
		b.Write(a)
	}
	return b.String()
}

// TestLiveKillRestartEquivalence kills a live session at random epochs
// while its trace directory grows under fault churn, recovers it from
// the persisted checkpoint each time, and asserts the final artifacts
// equal an uninterrupted run's and the batch fold's.
func TestLiveKillRestartEquivalence(t *testing.T) {
	const nCases, perCase = 12, 30
	log := synth.Log("kr", nCases, perCase, 20240924)
	cases := log.Cases()
	files := make(map[string][]byte, len(cases))
	for _, c := range cases {
		var buf strings.Builder
		if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
			t.Fatal(err)
		}
		files[c.ID.FileName()] = []byte(buf.String())
	}

	// Ground truth #1: a batch streaming fold over the same trace bytes
	// written whole — what the live path must reproduce after parsing
	// the same files back.
	batchDir := t.TempDir()
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(batchDir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	src, err := StreamStraceDir(batchDir, ParseOptions{Strict: true})
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeStreamParallel(src, CallTopDirs{Depth: 2}, 1, true)
	src.Close()
	if err != nil {
		t.Fatal(err)
	}
	wantArt := artifacts(want.ActivityLog, want.DFG, want.Stats, want.Behavior)

	// Ground truth #2: an uninterrupted session over the same churned
	// replay — the served artifacts the killed run must reproduce.
	refTraces, refState := t.TempDir(), t.TempDir()
	refSrv := liveServer(t, refState)
	refSess, err := refSrv.Create(liveSessionConfig("kr", refTraces))
	if err != nil {
		t.Fatal(err)
	}
	replayChurn(t, refTraces, cases, files)
	if err := refSess.Drain(); err != nil {
		t.Fatalf("uninterrupted drain: %v", err)
	}
	refRes, err := refSess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if refRes.Cases != nCases || refRes.Events != log.NumEvents() {
		t.Fatalf("uninterrupted run folded %d cases / %d events, want %d / %d",
			refRes.Cases, refRes.Events, nCases, log.NumEvents())
	}
	if got := artifacts(refRes.ActivityLog, refRes.DFG, refRes.Stats, refRes.Behavior); got != wantArt {
		t.Fatalf("uninterrupted live artifacts differ from the batch fold.\n--- live ---\n%s\n--- batch ---\n%s", got, wantArt)
	}
	refArt := sessionArtifacts(t, refSess)

	// The kill-and-restart run: same traces, same churn seed, but the
	// server is killed (in-process SIGKILL: abort without drain, disk
	// keeps only committed epochs) at random epochs and recovered.
	traces, state := t.TempDir(), t.TempDir()
	srv := liveServer(t, state)
	sess, err := srv.Create(liveSessionConfig("kr", traces))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		replayChurn(t, traces, cases, files)
	}()

	rng := rand.New(rand.NewSource(7))
	for kill := 0; kill < 3; kill++ {
		time.Sleep(time.Duration(15+rng.Intn(35)) * time.Millisecond)
		srv.AbortAll()
		srv = liveServer(t, state)
		names, err := srv.Recover()
		if err != nil {
			t.Fatalf("recover after kill %d: %v", kill, err)
		}
		if len(names) != 1 || names[0] != "kr" {
			t.Fatalf("recover after kill %d returned %v, want [kr]", kill, names)
		}
		var ok bool
		sess, ok = srv.Get("kr")
		if !ok {
			t.Fatalf("session missing after recovery %d", kill)
		}
	}
	wg.Wait()
	if err := sess.Drain(); err != nil {
		t.Fatalf("final drain: %v", err)
	}
	res, err := sess.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Cases != nCases || res.Events != log.NumEvents() {
		t.Errorf("killed run folded %d cases / %d events, want %d / %d",
			res.Cases, res.Events, nCases, log.NumEvents())
	}
	if info := sess.Info(); info.Shed != 0 {
		t.Errorf("blocking session shed %d cases", info.Shed)
	}
	if got := artifacts(res.ActivityLog, res.DFG, res.Stats, res.Behavior); got != wantArt {
		t.Errorf("kill-restart artifacts differ from the batch fold.\n--- killed ---\n%s\n--- batch ---\n%s", got, wantArt)
	}
	if got := sessionArtifacts(t, sess); got != refArt {
		t.Errorf("kill-restart served artifacts differ from uninterrupted run.\n--- killed ---\n%s\n--- uninterrupted ---\n%s", got, refArt)
	}

	// The state directory still holds the session config and final
	// checkpoint — what a further restart would recover from.
	for _, f := range []string{"session.json", "checkpoint.sts"} {
		if fi, err := os.Stat(filepath.Join(state, "kr", f)); err != nil || fi.Size() == 0 {
			t.Errorf("state file %s missing or empty after drain (err %v)", f, err)
		}
	}
}
