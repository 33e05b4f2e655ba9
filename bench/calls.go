package main

// This file is the benchmark's whole program surface: every call into
// stinspector lives here, and no other file of the benchmark imports a
// stinspector package. A change that renames, merges or removes one of
// the entry points below must keep this file compiling, or migrate it
// in a change of its own that re-measures the baseline.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"

	"stinspector/internal/archive"
	"stinspector/internal/behavior"
	"stinspector/internal/core"
	"stinspector/internal/dfg"
	"stinspector/internal/fsatomic"
	"stinspector/internal/intern"
	"stinspector/internal/iorsim"
	"stinspector/internal/pm"
	"stinspector/internal/render"
	"stinspector/internal/serve"
	"stinspector/internal/snapshot"
	"stinspector/internal/source"
	"stinspector/internal/stats"
	"stinspector/internal/strace"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

// Pipeline settings shared by every workload. They match the 2-core
// machine the baseline was measured on and stay fixed, so two commits
// are always compared under the same configuration.
const (
	parallelism = 2 // parse and decode workers
	window      = 4 // resident-case window of ordered sources
	shards      = 2 // analysis fold shards
	ckptEvery   = 8 // checkpointed_fold epoch size, in cases
	liveEvery   = 16
	greenCID    = "ssf" // the green partition of ior_compare
)

// mapping is the paper's default event-to-activity mapping f̂ (call plus
// the top two directory levels); every workload analyzes under it.
var mapping = pm.CallTopDirs{Depth: 2}

// oracle holds what a workload's outputs must be. Setup computes it from
// the generated logs through the in-memory path, independently of the
// files the measured run reads.
type oracle struct {
	Digest string `json:"digest"`
	Events int    `json:"events"`
	// CkptSHA is the SHA-256 of the final checkpoint bytes
	// (checkpointed_fold only).
	CkptSHA string `json:"ckpt_sha,omitempty"`
	// Files lists the live trace files in due order (live_session only).
	Files []string `json:"files,omitempty"`
}

// artifacts are the four things a user reads from one analysis.
type artifacts struct {
	graph *dfg.Graph
	stats *stats.Stats
	part  *dfg.Partition // nil unless a comparison
	log   *pm.Log
	beh   *behavior.Profile
}

func streamArtifacts(res *core.StreamResult) artifacts {
	return artifacts{graph: res.DFG, stats: res.Stats, log: res.ActivityLog, beh: res.Behavior}
}

// renderDigest renders the artifacts as text — the DFG listing, the
// statistics table, the variant list and the behavior profile — and
// returns the SHA-256 over all four plus the rendered size in bytes. The
// variant list is formatted as `stinspect variants` prints it.
func renderDigest(a artifacts, rec *recorder) (string, int) {
	h := sha256.New()
	n := 0
	add := func(s string) {
		h.Write([]byte(s))
		h.Write([]byte{0})
		n += len(s)
	}
	rec.begin("render.text")
	add(render.RenderText(a.graph, a.stats, a.part))
	add(render.StatsTable(a.stats))
	var b []byte
	for _, v := range a.log.Variants() {
		b = fmt.Appendf(b, "%4d× %s\n", v.Mult, v.Seq)
	}
	add(string(b))
	add(a.beh.RenderText())
	rec.end()
	return hex.EncodeToString(h.Sum(nil)), n
}

func fileSHA(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// ---- ior_compare ----

// setupIOR simulates IOR twice — shared file (CID ssf) and file per
// process (CID fpp) — writes one strace file per rank into dir, and
// computes the comparison's oracle from the simulated event-log.
func setupIOR(dir string, seed int64, ranks, segments int) (oracle, error) {
	var logs []*trace.EventLog
	for i, cid := range []string{"ssf", "fpp"} {
		res, err := iorsim.Run(iorsim.Config{
			CID: cid, Ranks: ranks, Hosts: 2,
			TransferSize: 256 << 10, BlockSize: 16 << 20, Segments: segments,
			Write: true, Read: true, FilePerProc: cid == "fpp", Preamble: true,
			Seed: seed + int64(i),
		})
		if err != nil {
			return oracle{}, err
		}
		logs = append(logs, res.Log)
	}
	el, err := trace.Union(logs...)
	if err != nil {
		return oracle{}, err
	}
	if err := strace.WriteDir(dir, el); err != nil {
		return oracle{}, err
	}
	d, _ := compareDigest(core.FromEventLog(el))
	return oracle{Digest: d, Events: el.NumEvents()}, nil
}

// compareDigest is what `stinspect compare -green ssf` computes, plus
// the variant list and behavior profile of the same log.
func compareDigest(in *core.Inspector) (string, int) {
	full, part := in.PartitionByCID(greenCID)
	st := in.Stats()
	return renderDigest(artifacts{graph: full, stats: st, part: part, log: in.ActivityLog(), beh: in.Behavior()}, nil)
}

// runCompare is one ior_compare iteration: parse the trace directory and
// compare the two runs.
func runCompare(dir string) (string, int, error) {
	in, err := core.FromStraceDir(dir, strace.Options{Parallelism: parallelism})
	if err != nil {
		return "", 0, err
	}
	d, _ := compareDigest(in)
	return d, in.EventLog().NumEvents(), nil
}

// replayCompare is runCompare decomposed into its layers: each file is
// parsed on its own, and the comparison is rebuilt from the public
// calls the inspector makes.
func replayCompare(dir string, rec *recorder) (string, replayCounts, error) {
	var rc replayCounts
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", rc, err
	}
	var cases []*trace.Case
	rec.allocStart()
	for _, ent := range ents {
		path := filepath.Join(dir, ent.Name())
		fi, err := ent.Info()
		if err != nil {
			return "", rc, err
		}
		rec.begin("strace.parse")
		c, err := strace.ParseFile(path, strace.Options{})
		rec.end()
		if err != nil {
			return "", rc, err
		}
		rc.parsedBytes += fi.Size()
		rc.parsedEvents += len(c.Events)
		cases = append(cases, c)
	}
	rec.allocStop("strace.parse")
	el, err := trace.NewEventLog(cases...)
	if err != nil {
		return "", rc, err
	}
	green, red := el.PartitionByCID(greenCID)
	opts := pm.BuildOptions{Endpoints: true}
	graphOf := func(l *trace.EventLog) *dfg.Graph {
		rec.begin("pm.build")
		al := pm.Build(l, mapping, opts)
		rec.end()
		rec.begin("dfg.build")
		g := dfg.Build(al)
		rec.end()
		return g
	}
	full := graphOf(el)
	gg, rg := graphOf(green), graphOf(red)
	rec.begin("dfg.classify")
	part := dfg.Classify(full, gg, rg)
	rec.end()

	comp := stats.NewComputer(mapping)
	for _, c := range el.Cases() {
		rec.begin("stats.add")
		comp.Add(c)
		rec.end()
	}
	rec.begin("stats.finalize")
	st := comp.Finalize()
	rec.end()

	rec.begin("pm.build")
	al := pm.Build(el, mapping, opts)
	rec.end()
	beh := behavior.New()
	for _, c := range el.Cases() {
		rec.begin("behavior.add")
		beh.AddCase(c)
		rec.end()
	}
	a := artifacts{graph: full, stats: st, part: part, log: al, beh: beh}
	rc.fill(a, rec)
	d, n := renderDigest(a, rec)
	rc.rendered = n
	return d, rc, nil
}

// ---- archive workloads ----

// setupArchive generates each named profile at cases × perCase events
// (CID = profile name), writes them as one STA v2 archive, and computes
// the oracle with a one-shard in-memory fold. With ckpt set it also
// records the bytes a checkpoint of the whole fold must end with.
func setupArchive(path string, seed int64, profs []string, cases, perCase int, ckpt bool) (oracle, error) {
	var logs []*trace.EventLog
	for i, name := range profs {
		p, ok := profiles.Lookup(name)
		if !ok {
			return oracle{}, fmt.Errorf("unknown generator profile %q", name)
		}
		logs = append(logs, p.Generate(name, cases, perCase, seed+int64(i)))
	}
	el, err := trace.Union(logs...)
	if err != nil {
		return oracle{}, err
	}
	if err := archive.WriteFileV2(path, el); err != nil {
		return oracle{}, err
	}
	res, err := core.AnalyzeStreamParallel(source.FromLog(el), mapping, 1, false)
	if err != nil {
		return oracle{}, err
	}
	d, _ := renderDigest(streamArtifacts(res), nil)
	o := oracle{Digest: d, Events: el.NumEvents()}
	if ckpt {
		snap, err := core.AnalyzeStreamSnapshot(source.FromLog(el), mapping, 1, false)
		if err != nil {
			return oracle{}, err
		}
		sum := sha256.Sum256(snapshot.Encode(snap))
		o.CkptSHA = hex.EncodeToString(sum[:])
	}
	return o, nil
}

// openStream opens an archive and streams it with the shared decode
// settings; close releases both.
func openStream(path string, rec *recorder) (source.Source, func(), error) {
	r, err := archive.Open(path)
	if err != nil {
		return nil, nil, err
	}
	src := r.Stream(parallelism, window)
	return waitSource{src: src, rec: rec}, func() { src.Close(); r.Close() }, nil
}

// runReanalyze is one archive_reanalyze iteration: stream the archive
// through the sharded fold and render every artifact. Under a recorder
// the fold is one span whose children are the waits on the source.
func runReanalyze(path string, rec *recorder) (string, realCounts, error) {
	var rc realCounts
	src, closeFn, err := openStream(path, rec)
	if err != nil {
		return "", rc, err
	}
	defer closeFn()
	rec.allocStart()
	rec.begin("core.analyze")
	res, err := core.AnalyzeStreamParallel(src, mapping, shards, false)
	rec.end()
	rec.allocStop("core.analyze")
	if err != nil {
		return "", rc, err
	}
	rc.events, rc.peakResident = res.Events, res.PeakResident
	d, _ := renderDigest(streamArtifacts(res), nil)
	return d, rc, nil
}

// runCheckpointed is one checkpointed_fold iteration: the durable fold
// into a fresh dir, adding up the checkpoint's size after every epoch.
// The final checkpoint stays in dir for the caller to verify.
func runCheckpointed(path, dir string, rec *recorder) (string, realCounts, error) {
	var rc realCounts
	src, closeFn, err := openStream(path, rec)
	if err != nil {
		return "", rc, err
	}
	defer closeFn()
	ckpt := checkpointPath(dir)
	rec.allocStart()
	rec.begin("core.checkpointed")
	res, err := core.AnalyzeStreamCheckpointed(src, mapping, shards, false, core.CheckpointOptions{
		Dir:   dir,
		Every: ckptEvery,
		OnEpoch: func(int) {
			if fi, err := os.Stat(ckpt); err == nil {
				rc.written += fi.Size()
			}
		},
	})
	rec.end()
	rec.allocStop("core.checkpointed")
	if err != nil {
		return "", rc, err
	}
	rc.events, rc.peakResident = res.Events, res.PeakResident
	d, _ := renderDigest(streamArtifacts(res), nil)
	return d, rc, nil
}

func checkpointPath(dir string) string { return filepath.Join(dir, core.DefaultCheckpointName) }

// drainArchive decodes every case with one worker and folds nothing:
// the archive layer's cost on its own.
func drainArchive(path string, rec *recorder) (int, error) {
	r, err := archive.Open(path)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	src := r.Stream(1, 1)
	defer src.Close()
	events := 0
	rec.allocStart()
	rec.begin("archive.decode")
	for {
		c, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			rec.end()
			return 0, err
		}
		events += len(c.Events)
	}
	rec.end()
	rec.allocStop("archive.decode")
	return events, nil
}

// replayReanalyze is runReanalyze with the fold replayed sequentially
// through the public calls core's fold makes per case.
func replayReanalyze(path string, rec *recorder) (string, replayCounts, error) {
	var rc replayCounts
	rec.begin("archive.open")
	r, err := archive.Open(path)
	rec.end()
	if err != nil {
		return "", rc, err
	}
	defer r.Close()
	src := waitSource{src: r.Stream(parallelism, window), rec: rec}
	defer src.Close()

	sm := pm.NewSymMapper(mapping)
	pmB := pm.NewBuilderSym(sm, pm.BuildOptions{Endpoints: true})
	dfgB := dfg.NewBuilderSym(sm.Acts())
	stC := stats.NewComputerSym(sm)
	beh := behavior.New()
	var syms []intern.Sym
	for {
		c, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return "", rc, err
		}
		rc.parsedEvents += len(c.Events)
		rec.begin("pm.map")
		syms = sm.MapCase(c, syms[:0])
		rec.end()
		rec.begin("pm.add")
		seq, ok := pmB.AddMapped(c.ID, syms)
		rec.end()
		if ok {
			rec.begin("dfg.add")
			dfgB.AddSymVariant(seq, 1)
			rec.end()
		}
		rec.begin("stats.add")
		stC.AddMapped(c, syms)
		rec.end()
		rec.begin("behavior.add")
		beh.AddCase(c)
		rec.end()
	}
	rec.begin("pm.finalize")
	al := pmB.Finalize()
	rec.end()
	rec.begin("dfg.finalize")
	g := dfgB.Finalize()
	rec.end()
	rec.begin("stats.finalize")
	st := stC.Finalize()
	rec.end()
	a := artifacts{graph: g, stats: st, log: al, beh: beh}
	rc.fill(a, rec)
	d, n := renderDigest(a, rec)
	rc.rendered = n
	return d, rc, nil
}

// replayEpochs replays the checkpoint loop over n cases in epochs of
// every cases: fold each slice [a, b) into a partial snapshot, merge it
// into the accumulated state, encode it and write the checkpoint. Like
// the engine it runs n/every+1 epochs, the last one holding the remainder
// (possibly none) and ending at the end of the stream. The encoded bytes
// are written the way snapshot.WriteFile writes them, so encode and write
// time separate. Finally the checkpoint is read back as a query reads it.
// It returns the final artifacts' digest and fills the snapshot counts.
func replayEpochs(dir string, n, every int, batch func(a, b int) source.Source, rec *recorder, rc *replayCounts) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := checkpointPath(dir)
	var acc *snapshot.Snapshot
	for a := 0; a <= n; a += every {
		rec.begin("source.open")
		src := batch(a, min(a+every, n))
		rec.end()
		rec.begin("core.snapshot")
		ep, err := core.AnalyzeStreamSnapshot(src, mapping, shards, false)
		rec.end()
		rec.begin("source.close")
		src.Close()
		rec.end()
		if err != nil {
			return "", err
		}
		rec.begin("snapshot.merge")
		acc = snapshot.Merge(acc, ep)
		rec.end()
		rec.begin("snapshot.encode")
		enc := snapshot.Encode(acc)
		rec.end()
		rec.begin("snapshot.write")
		err = fsatomic.WriteFileBytes(path, enc)
		rec.end()
		if err != nil {
			return "", err
		}
		rc.epochs++
		rc.written += int64(len(enc))
		rc.finalBytes = enc
	}
	rec.begin("snapshot.decode")
	res, err := core.MergeSnapshotFiles(mapping, path)
	rec.end()
	if err != nil {
		return "", err
	}
	a := streamArtifacts(res)
	rc.fill(a, rec)
	d, n := renderDigest(a, rec)
	rc.rendered = n
	return d, nil
}

// replayCheckpointed replays runCheckpointed's epoch loop over
// ckptEvery-case slices of the archive.
func replayCheckpointed(path, dir string, rec *recorder) (string, replayCounts, error) {
	var rc replayCounts
	rec.begin("archive.open")
	r, err := archive.Open(path)
	rec.end()
	if err != nil {
		return "", rc, err
	}
	defer r.Close()
	d, err := replayEpochs(dir, r.NumCases(), ckptEvery, func(a, b int) source.Source {
		return waitSource{src: r.StreamRange(a, b, parallelism, window), rec: rec}
	}, rec, &rc)
	return d, rc, err
}

// ---- live_session ----

// setupLive generates the multitenant profile as files × perFile events
// and writes each case as one strace text file into dir, in due order.
func setupLive(dir string, seed int64, files, perFile int) (oracle, error) {
	p, _ := profiles.Lookup("multitenant")
	el := p.Generate("live", files, perFile, seed)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return oracle{}, err
	}
	o := oracle{Events: el.NumEvents()}
	for _, c := range el.Cases() {
		var buf bytes.Buffer
		if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
			return oracle{}, err
		}
		name := c.ID.FileName()
		if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
			return oracle{}, err
		}
		o.Files = append(o.Files, name)
	}
	res, err := core.AnalyzeStreamParallel(source.FromLog(el), mapping, 1, false)
	if err != nil {
		return oracle{}, err
	}
	o.Digest, _ = renderDigest(streamArtifacts(res), nil)
	return o, nil
}

// liveServer is one stserve-style server with a single session tailing
// traceDir, served on a loopback listener.
type liveServer struct {
	srv      *serve.Server
	sess     *serve.Session
	http     *httptest.Server
	stateDir string
}

const liveSession = "bench"

func startLive(stateDir, traceDir string) (*liveServer, error) {
	srv, err := serve.NewServer(serve.Config{StateDir: stateDir, Watchdog: -1})
	if err != nil {
		return nil, err
	}
	sess, err := srv.Create(serve.SessionConfig{
		Name: liveSession, TraceDir: traceDir, Policy: "block",
		Every: liveEvery, Shards: shards, PollMS: 5, GraceMS: 20,
	})
	if err != nil {
		return nil, err
	}
	return &liveServer{srv: srv, sess: sess, http: httptest.NewServer(srv.Handler()), stateDir: stateDir}, nil
}

func (l *liveServer) dfgURL() string { return l.http.URL + "/sessions/" + liveSession + "/dfg" }

func (l *liveServer) checkpointPath() string {
	return checkpointPath(filepath.Join(l.stateDir, liveSession))
}

// liveInfo is the part of the session status the benchmark checks.
type liveInfo struct {
	cases, peakResident                 int
	pushed, shed                        uint64
	partialDrops, parseSkips, rotations uint64
	faults                              []string
}

func (l *liveServer) info() liveInfo {
	in := l.sess.Info()
	return liveInfo{
		cases: in.Cases, peakResident: in.PeakResident, pushed: in.Pushed, shed: in.Shed,
		partialDrops: in.Tailer.PartialDrops, parseSkips: in.Tailer.ParseSkips, rotations: in.Tailer.Rotations,
		faults: in.Faults,
	}
}

// artifact renders the DFG from the session's latest checkpoint, the
// work behind one HTTP query, without the HTTP round trip.
func (l *liveServer) artifact() error {
	_, err := l.sess.Artifact("dfg")
	return err
}

// drain finishes the session: every file flushed, the last checkpoint
// written.
func (l *liveServer) drain() error { return l.sess.Drain() }

// result returns the digest of the drained session's final artifacts and
// the cases and events it folded.
func (l *liveServer) result() (string, int, int, error) {
	res, err := l.sess.Result()
	if err != nil {
		return "", 0, 0, err
	}
	d, _ := renderDigest(streamArtifacts(res), nil)
	return d, res.Cases, res.Events, nil
}

// close stops the listener and every session goroutine.
func (l *liveServer) close() {
	l.http.Close()
	l.srv.AbortAll()
}

// replayLive replays a live session sequentially: each file through the
// follow-mode reader, then the epoch loop over liveEvery-case slices in
// due order.
func replayLive(dir string, files []string, data [][]byte, rec *recorder) (string, replayCounts, error) {
	var rc replayCounts
	syms := intern.NewTable()
	cases := make([]*trace.Case, 0, len(files))
	rec.allocStart()
	for i, name := range files {
		id, err := trace.ParseCaseID(name)
		if err != nil {
			return "", rc, err
		}
		rec.begin("strace.parse")
		c, dropped, err := strace.FollowReader(id, bytes.NewReader(data[i]), strace.Options{Syms: syms})
		rec.end()
		if err != nil {
			return "", rc, err
		}
		if dropped != 0 {
			return "", rc, errors.New("follow reader dropped a partial line of a complete file")
		}
		rc.parsedBytes += int64(len(data[i]))
		rc.parsedEvents += len(c.Events)
		cases = append(cases, c)
	}
	rec.allocStop("strace.parse")
	d, err := replayEpochs(dir, len(cases), liveEvery, func(a, b int) source.Source {
		return source.FromCases(cases[a:b]...)
	}, rec, &rc)
	return d, rc, err
}

// ---- counts and the source wrapper ----

// realCounts is what a measured (not replayed) run reports besides its
// digest.
type realCounts struct {
	events, peakResident int
	written              int64 // checkpoint bytes written, summed over epochs
}

// replayCounts is what a replay reports besides its spans.
type replayCounts struct {
	parsedBytes               int64
	parsedEvents              int
	rendered                  int
	variants, edges, subjects int
	epochs                    int
	written                   int64
	finalBytes                []byte // the last checkpoint encoded
}

func (rc *replayCounts) fill(a artifacts, rec *recorder) {
	rc.variants = a.log.NumVariants()
	rc.edges = a.graph.NumEdges()
	rec.begin("behavior.totals")
	files, hosts, commands := a.beh.Totals()
	rec.end()
	rc.subjects = files + hosts + commands
}

// waitSource times every Next call as a "source.wait" span: the time
// the consumer was blocked waiting for the next case. Spans are
// recorded only on the goroutine that calls Next.
type waitSource struct {
	src source.Source
	rec *recorder
}

func (w waitSource) Next() (*trace.Case, error) {
	w.rec.begin("source.wait")
	c, err := w.src.Next()
	w.rec.end()
	return c, err
}

func (w waitSource) Close() error { return w.src.Close() }

// PeakResident forwards the wrapped source's resident-case peak.
func (w waitSource) PeakResident() int { return source.PeakResident(w.src) }
