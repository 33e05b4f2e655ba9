package profiles_test

// Round-trip properties: every profile's output must survive each
// ingestion backend and reach analysis with zero dropped events. The
// strace-text trip is event-exact (the writer/parser pair is lossless
// for representable logs), the STA archive trip is exact by
// construction, and the DXT trip is count-level (the dump format only
// carries sized transfer calls under a single collective id).

import (
	"bytes"
	"testing"
	"testing/fstest"

	"stinspector/internal/archive"
	"stinspector/internal/core"
	"stinspector/internal/dxt"
	"stinspector/internal/pm"
	"stinspector/internal/source"
	"stinspector/internal/strace"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

const rtCases, rtPerCase = 6, 60

func rtLog(t *testing.T, p profiles.Profile) *trace.EventLog {
	t.Helper()
	return p.Generate("rt", rtCases, rtPerCase, 20260808)
}

// requireEqualLogs compares two logs case by case, event by event.
func requireEqualLogs(t *testing.T, want, got *trace.EventLog) {
	t.Helper()
	if got.NumCases() != want.NumCases() {
		t.Fatalf("cases = %d, want %d", got.NumCases(), want.NumCases())
	}
	for _, wc := range want.Cases() {
		gc := got.Case(wc.ID)
		if gc == nil {
			t.Fatalf("case %s missing after round trip", wc.ID)
		}
		if len(gc.Events) != len(wc.Events) {
			t.Fatalf("case %s: %d events, want %d — events were dropped",
				wc.ID, len(gc.Events), len(wc.Events))
		}
		for i, we := range wc.Events {
			if !gc.Events[i].Equal(we) {
				t.Fatalf("case %s event %d:\n got %s\nwant %s", wc.ID, i, gc.Events[i], we)
			}
		}
	}
}

// TestRoundTripStraceText: write each case as strace -ttt -T -y text,
// parse it back strictly, and require exact event equality.
func TestRoundTripStraceText(t *testing.T) {
	for _, p := range profiles.All() {
		t.Run(p.Name, func(t *testing.T) {
			want := rtLog(t, p)
			cases := make([]*trace.Case, 0, want.NumCases())
			for _, c := range want.Cases() {
				var buf bytes.Buffer
				if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
					t.Fatal(err)
				}
				got, err := strace.ParseCase(c.ID, bytes.NewReader(buf.Bytes()), strace.Options{Strict: true})
				if err != nil {
					t.Fatalf("case %s: %v", c.ID, err)
				}
				cases = append(cases, got)
			}
			requireEqualLogs(t, want, trace.MustNewEventLog(cases...))
		})
	}
}

// TestRoundTripArchive: STA encode/decode is exact for every profile.
func TestRoundTripArchive(t *testing.T) {
	for _, p := range profiles.All() {
		t.Run(p.Name, func(t *testing.T) {
			want := rtLog(t, p)
			var buf bytes.Buffer
			if err := archive.WriteV2(&buf, want); err != nil {
				t.Fatal(err)
			}
			r, err := archive.NewReaderBytes(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			src := r.Stream(0, 0)
			defer src.Close()
			got, err := source.Drain(src, false)
			if err != nil {
				t.Fatal(err)
			}
			requireEqualLogs(t, want, got)
		})
	}
}

// TestRoundTripDXT: the dump format only represents sized transfer
// calls, so the trip is count-level — every representable event must
// come back, none invented.
func TestRoundTripDXT(t *testing.T) {
	for _, p := range profiles.All() {
		t.Run(p.Name, func(t *testing.T) {
			want := rtLog(t, p)
			var buf bytes.Buffer
			skipped, err := dxt.Write(&buf, want)
			if err != nil {
				t.Fatal(err)
			}
			records, err := dxt.Parse(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			got, err := dxt.ToEventLog("rt", records)
			if err != nil {
				t.Fatal(err)
			}
			if got.NumEvents() != want.NumEvents()-skipped {
				t.Errorf("events = %d, want %d (%d total - %d unrepresentable)",
					got.NumEvents(), want.NumEvents()-skipped, want.NumEvents(), skipped)
			}
			if got.NumEvents() == 0 {
				t.Error("no events survived the DXT trip")
			}
		})
	}
}

// TestRoundTripAnalysis: each profile, ingested from rendered strace
// text through the streaming pipeline, reaches analysis with zero
// dropped and zero unmapped events.
func TestRoundTripAnalysis(t *testing.T) {
	for _, p := range profiles.All() {
		t.Run(p.Name, func(t *testing.T) {
			want := rtLog(t, p)
			fsys := fstest.MapFS{}
			for _, c := range want.Cases() {
				var buf bytes.Buffer
				if err := strace.NewWriter(&buf).WriteCase(c); err != nil {
					t.Fatal(err)
				}
				fsys[c.ID.FileName()] = &fstest.MapFile{Data: buf.Bytes()}
			}
			src, err := strace.StreamFS(fsys, ".", strace.Options{Strict: true, Parallelism: 2, Window: 2})
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.AnalyzeStreamParallel(src, pm.CallTopDirs{Depth: 2}, 2, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Events != want.NumEvents() {
				t.Errorf("stream delivered %d events, want %d", res.Events, want.NumEvents())
			}
			if res.Cases != want.NumCases() {
				t.Errorf("stream delivered %d cases, want %d", res.Cases, want.NumCases())
			}
			if got := res.ActivityLog.MappedEvents(); got != want.NumEvents() {
				t.Errorf("mapped %d events, want %d", got, want.NumEvents())
			}
			if got := res.ActivityLog.UnmappedEvents(); got != 0 {
				t.Errorf("unmapped events = %d, want 0", got)
			}
		})
	}
}

// TestRoundTripAnalysisInMemoryAgreement: for every profile the
// in-memory pipeline over the original log and the streaming pipeline
// over parsed-back strace text agree on mapped-event counts — parsing
// must not change what analysis sees.
func TestRoundTripAnalysisInMemoryAgreement(t *testing.T) {
	for _, p := range profiles.All() {
		t.Run(p.Name, func(t *testing.T) {
			want := rtLog(t, p)
			res, err := core.AnalyzeStream(source.FromLog(want), pm.CallTopDirs{Depth: 2}, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Events != want.NumEvents() || res.ActivityLog.UnmappedEvents() != 0 {
				t.Errorf("in-memory source: events=%d unmapped=%d, want %d/0",
					res.Events, res.ActivityLog.UnmappedEvents(), want.NumEvents())
			}
		})
	}
}
