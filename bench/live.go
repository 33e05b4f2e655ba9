package main

import (
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The live generator is an open loop: one file is due every liveDue
// whatever the server does, appended with liveChunk-byte writes. Beside
// it one client queries the DFG in a closed loop with queryThink between
// a reply and the next request.
const (
	liveDue     = 10 * time.Millisecond
	liveChunk   = 2048
	queryThink  = 50 * time.Millisecond
	visiblePoll = time.Millisecond
	// queryQuiet is how long before the last file is due the client stops
	// (at most a quarter of the run), so no query is in flight at Drain.
	queryQuiet = time.Second
)

func setupLiveSession(dir string, seed int64, seconds int, sz sizes) (oracle, error) {
	return setupLive(filepath.Join(dir, "src"), seed, seconds*sz.liveFilesPerSecond, sz.livePerFile)
}

func loadLiveFiles(dir string, o oracle) ([][]byte, error) {
	data := make([][]byte, len(o.Files))
	for i, name := range o.Files {
		b, err := os.ReadFile(filepath.Join(dir, "src", name))
		if err != nil {
			return nil, err
		}
		data[i] = b
	}
	return data, nil
}

// liveRun is what one timed live session observed.
type liveRun struct {
	visible   []float64 // per file: seconds from due to first poll showing it folded
	late      []float64 // per file: seconds the generator started writing after due
	queries   []float64 // successful query round trips, seconds
	artifacts []float64 // direct artifact renders, seconds (traced runs)
	httpCost  []float64 // per traced query: round trip minus the artifact render before it
	cpu       float64
	span      time.Duration // first due to last file visible
	written   int64         // checkpoint bytes written, summed over epochs
	info      liveInfo
}

// runLive runs one session over the files: the open-loop writer on this
// goroutine, a 1 ms poller of the session's checkpointed case count, and
// the query client. It ends with Drain and checks the final artifacts.
func runLive(rep *report, dir string, o oracle, data [][]byte, traced bool) (liveRun, error) {
	var lr liveRun
	traceDir := filepath.Join(dir, "traces")
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return lr, err
	}
	ls, err := startLive(filepath.Join(dir, "state"), traceDir)
	if err != nil {
		return lr, err
	}
	defer ls.close()
	n := len(o.Files)

	var poller, client sync.WaitGroup
	stopPoll, stopClient := make(chan struct{}), make(chan struct{})
	firstCkpt := make(chan struct{})
	visibleAt := make([]time.Time, n)
	poller.Add(1)
	go func() {
		defer poller.Done()
		tick := time.NewTicker(visiblePoll)
		defer tick.Stop()
		seen, opened := 0, false
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
			}
			cases := ls.info().cases
			now := time.Now()
			if cases > seen {
				if fi, err := os.Stat(ls.checkpointPath()); err == nil {
					lr.written += fi.Size()
				}
				if !opened {
					close(firstCkpt)
					opened = true
				}
			}
			for ; seen < cases && seen < n; seen++ {
				visibleAt[seen] = now
			}
		}
	}()
	var queryFailed int
	client.Add(1)
	go func() {
		defer client.Done()
		select {
		case <-firstCkpt:
		case <-stopClient:
			return
		}
		hc := &http.Client{Timeout: time.Minute}
		defer hc.CloseIdleConnections()
		for {
			art := -1.0
			if traced {
				t0 := time.Now()
				if err := ls.artifact(); err == nil {
					art = time.Since(t0).Seconds()
					lr.artifacts = append(lr.artifacts, art)
				}
			}
			t0 := time.Now()
			resp, err := hc.Get(ls.dfgURL())
			if err == nil {
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %s", resp.Status)
				}
			}
			if err != nil {
				queryFailed++
				rep.Problems = append(rep.Problems, fmt.Sprintf("query: %v", err))
			} else {
				rtt := time.Since(t0).Seconds()
				lr.queries = append(lr.queries, rtt)
				if art >= 0 {
					lr.httpCost = append(lr.httpCost, rtt-art)
				}
			}
			select {
			case <-stopClient:
				return
			case <-time.After(queryThink):
			}
		}
	}()

	start := time.Now()
	cpu0 := cpuSeconds()
	lr.late = make([]float64, n)
	quietFrom := n - min(int(queryQuiet/liveDue), n/4)
	stopQueries := sync.OnceFunc(func() { close(stopClient) })
	var writeErr error
	for i, name := range o.Files {
		if i == quietFrom {
			stopQueries()
		}
		due := start.Add(time.Duration(i) * liveDue)
		time.Sleep(time.Until(due))
		lr.late[i] = time.Since(due).Seconds()
		if writeErr = appendFile(filepath.Join(traceDir, name), data[i]); writeErr != nil {
			break
		}
	}
	// The last query finishes before Drain, so the final epoch and the
	// drained result never share the heap or the processors with a query.
	stopQueries()
	client.Wait()
	drainErr := ls.drain()
	drained := time.Now()
	lr.cpu = cpuSeconds() - cpu0
	close(stopPoll)
	poller.Wait()
	if writeErr != nil {
		return lr, writeErr
	}
	if drainErr != nil {
		return lr, drainErr
	}
	lr.info = ls.info()
	d, cases, events, err := ls.result()
	if err != nil {
		return lr, err
	}

	// Files the last epoch covers become visible when Drain writes it.
	for i := 0; i < n && i < lr.info.cases; i++ {
		if visibleAt[i].IsZero() {
			visibleAt[i] = drained
		}
	}
	for i, t := range visibleAt {
		due := start.Add(time.Duration(i) * liveDue)
		rep.check(!t.IsZero(), "file %d never became visible", i)
		if !t.IsZero() {
			lr.visible = append(lr.visible, t.Sub(due).Seconds())
			if s := t.Sub(start); s > lr.span {
				lr.span = s
			}
		}
	}
	rep.Attempted += len(lr.queries) + queryFailed
	rep.Failed += queryFailed
	rep.checkDigest("drained session", d, o.Digest)
	rep.check(cases == n && events == o.Events, "drained session folded %d cases, %d events; want %d, %d", cases, events, n, o.Events)
	in := lr.info
	rep.check(in.pushed == uint64(n) && in.shed == 0, "session pushed %d cases and shed %d; want %d and 0", in.pushed, in.shed, n)
	rep.check(in.partialDrops == 0 && in.parseSkips == 0 && in.rotations == 0 && len(in.faults) == 0,
		"follow faults: %d partial drops, %d parse skips, %d rotations, fault log %q", in.partialDrops, in.parseSkips, in.rotations, in.faults)
	return lr, nil
}

// appendFile creates a trace file and writes it in liveChunk-byte writes.
func appendFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	for off := 0; off < len(data); off += liveChunk {
		if _, err := f.Write(data[off:min(off+liveChunk, len(data))]); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// warmFiles is how many files the live warm-up replays: enough epochs to
// run every parse, fold, snapshot and render path, without the cost of
// the whole session's growing state.
const warmFiles = 10 * liveEvery

// warmLive replays the first warmFiles files sequentially before the
// timed session.
func warmLive(dir string, o oracle, data [][]byte) error {
	n := min(warmFiles, len(o.Files))
	if _, _, err := replayLive(filepath.Join(dir, "warm"), o.Files[:n], data[:n], nil); err != nil {
		return err
	}
	return os.RemoveAll(filepath.Join(dir, "warm"))
}

func measureLive(dir string, o oracle, _ int) (report, error) {
	rep := newReport()
	data, err := loadLiveFiles(dir, o)
	if err != nil {
		return rep, err
	}
	if err := warmLive(dir, o, data); err != nil {
		return rep, err
	}
	lr, err := runLive(&rep, dir, o, data, false)
	if err != nil {
		return rep, err
	}
	// Nothing here is scaled to the reference host speed: the open loop
	// fixes the offered rate, visibility is mostly waiting (for an epoch
	// to fill, the grace period, the poll), and kernel samples taken
	// around the session made its CPU cost noisier, not steadier.
	rep.Metrics["events_per_s"] = float64(o.Events) / lr.span.Seconds()
	rep.Metrics["cpu_s_per_mevent"] = lr.cpu / float64(o.Events) * 1e6
	rep.Metrics["latency_p50_ms"] = quantile(lr.visible, 0.5) * 1e3
	rep.Metrics["latency_p90_ms"] = quantile(lr.visible, 0.9) * 1e3
	return rep, nil
}

func traceLive(dir string, o oracle, rec *recorder) (report, error) {
	rep := newReport()
	data, err := loadLiveFiles(dir, o)
	if err != nil {
		return rep, err
	}
	if err := warmLive(dir, o, data); err != nil {
		return rep, err
	}
	lr, err := runLive(&rep, dir, o, data, true)
	if err != nil {
		return rep, err
	}
	m := rep.Metrics
	m["source.live_peak_resident"] = float64(lr.info.peakResident)
	m["source.live_shed"] = float64(lr.info.shed)
	m["follow.partial_drops"] = float64(lr.info.partialDrops)
	m["follow.parse_skips"] = float64(lr.info.parseSkips)
	m["follow.rotations"] = float64(lr.info.rotations)
	m["gen.late_p99_ms"] = quantile(lr.late, 0.99) * 1e3
	m["snapshot.ckpt_written_mb"] = float64(lr.written) / 1e6
	m["serve.query_p50_ms"] = quantile(lr.queries, 0.5) * 1e3
	m["serve.query_p90_ms"] = quantile(lr.queries, 0.9) * 1e3
	m["serve.artifact_s"] = quantile(lr.artifacts, 0.5)
	m["serve.http_s"] = quantile(lr.httpCost, 0.5)
	n := 0
	_, err = replayPair(&rep, o, rec, func(rec *recorder) (string, replayCounts, error) {
		n++
		return replayLive(filepath.Join(dir, fmt.Sprintf("replay-%d", n)), o.Files, data, rec)
	})
	return rep, err
}
