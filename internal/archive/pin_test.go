package archive

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stinspector/internal/source"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

var updatePin = flag.Bool("update", false, "rewrite testdata/pin.sta from the fixed generator cases")

// TestFormatPinSTA pins the STA bytes across builds: round-trip tests
// write and read with the same build, so a writer and a reader changed
// together would pass them while every archive on disk stopped loading.
// The committed file must decode to the regenerated cases, and both the
// decoded log and the regenerated one must write its exact bytes.
// Regenerate with -update only when the format is meant to change (and
// the version with it).
func TestFormatPinSTA(t *testing.T) {
	path := filepath.Join("testdata", "pin.sta")
	var cases []*trace.Case
	for _, name := range []string{"behavior", "hostileargs"} {
		p, ok := profiles.Lookup(name)
		if !ok {
			t.Fatalf("profile %s missing", name)
		}
		cases = append(cases, p.Generate("pin-"+name, 3, 12, 20240924).Cases()...)
	}
	want := trace.MustNewEventLog(cases...)
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileV2(path, want); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Open(path)
	if err != nil {
		t.Fatalf("opening the committed file: %v", err)
	}
	defer r.Close()
	got, err := source.Drain(r.Stream(1, 1), false)
	if err != nil {
		t.Fatalf("decoding the committed file: %v", err)
	}
	if !reflect.DeepEqual(got.Cases(), want.Cases()) {
		t.Errorf("decoded cases differ from the regenerated ones")
	}
	for name, log := range map[string]*trace.EventLog{"decoded": got, "regenerated": want} {
		var buf bytes.Buffer
		if err := writeV2(&buf, log); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), data) {
			t.Errorf("the %s log writes %d bytes that differ from the committed %d", name, buf.Len(), len(data))
		}
	}
}
