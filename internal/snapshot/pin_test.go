package snapshot

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stinspector/internal/pm"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/pin.sts from the fixed generator cases")

// pinLog is the fixed corpus behind testdata/pin.sts: a few cases of
// the behavior and hostileargs profiles, so the file carries subjects,
// endpoints and hostile path bytes in every section.
func pinLog(t *testing.T) *trace.EventLog {
	t.Helper()
	var cases []*trace.Case
	for _, name := range []string{"behavior", "hostileargs"} {
		p, ok := profiles.Lookup(name)
		if !ok {
			t.Fatalf("profile %s missing", name)
		}
		cases = append(cases, p.Generate("pin-"+name, 3, 12, 20240924).Cases()...)
	}
	return trace.MustNewEventLog(cases...)
}

// TestFormatPinSTS pins the STS bytes across builds: round-trip tests
// encode and decode with the same build, so an encoder and a decoder
// changed together would pass them while every checkpoint on disk
// stopped loading. The committed file must decode to the artifacts of a
// fresh fold of the same cases, re-encode to its own bytes, and equal
// what the fresh fold encodes to. Regenerate with -update only when the
// format is meant to change (and the version with it).
func TestFormatPinSTS(t *testing.T) {
	path := filepath.Join("testdata", "pin.sts")
	m := pm.CallTopDirs{Depth: 2}
	el := pinLog(t)
	fresh := foldRange(el, m, 0, el.NumCases())
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, Encode(fresh), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decode(data, m)
	if err != nil {
		t.Fatalf("decoding the committed file: %v", err)
	}
	if got.Cases != fresh.Cases || got.Events != fresh.Events || !reflect.DeepEqual(got.Seen, fresh.Seen) {
		t.Errorf("meta/seen: got %d cases, %d events, %v; want %d, %d, %v",
			got.Cases, got.Events, got.Seen, fresh.Cases, fresh.Events, fresh.Seen)
	}
	if got.Log.String() != fresh.Log.String() {
		t.Errorf("activity-log differs:\n%s\nwant\n%s", got.Log, fresh.Log)
	}
	if got.Behavior.RenderText() != fresh.Behavior.RenderText() {
		t.Errorf("behavior profile differs:\n%s\nwant\n%s", got.Behavior.RenderText(), fresh.Behavior.RenderText())
	}
	if re := Encode(got); !bytes.Equal(re, data) {
		t.Errorf("re-encoding the committed file gives %d bytes that differ from its %d", len(re), len(data))
	}
	if enc := Encode(fresh); !bytes.Equal(enc, data) {
		t.Errorf("a fresh fold encodes to %d bytes that differ from the committed %d", len(enc), len(data))
	}
	// Finalize is lossy, so the statistics are compared last.
	if gs, fs := got.Stats.Finalize(), fresh.Stats.Finalize(); !reflect.DeepEqual(gs, fs) {
		t.Error("finalized statistics differ")
	}
}
