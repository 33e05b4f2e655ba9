package strace

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"stinspector/internal/intern"
	"stinspector/internal/trace"
)

// TestParseCaseScopedSyms: parsing with Options.Syms set interns the
// trace's strings into the scoped table only — the process-wide
// Default does not grow even for novel paths — and the parsed events
// are identical to a Default-table parse.
func TestParseCaseScopedSyms(t *testing.T) {
	const text = "0.000100 openat(AT_FDCWD, \"/scoped-strace-test/data.bin\", O_RDONLY) = 3</scoped-strace-test/data.bin> <0.000020>\n" +
		"0.000200 read(3</scoped-strace-test/data.bin>, \"\", 4096) = 4096 <0.000050>\n" +
		"0.000300 close(3</scoped-strace-test/data.bin>) = 0 <0.000010>\n"
	id := trace.CaseID{CID: "scoped-strace-test", Host: "h0", RID: 1}

	want, err := ParseCase(id, strings.NewReader(text), Options{})
	if err != nil {
		t.Fatal(err)
	}

	tab := intern.NewTable()
	d0 := defaultSymbols()
	got, err := ParseCase(id, strings.NewReader(text), Options{Syms: tab})
	if err != nil {
		t.Fatal(err)
	}
	if defaultSymbols() != d0 {
		t.Errorf("scoped parse grew the default table: %d -> %d", d0, defaultSymbols())
	}
	if tab.Len() < 4 { // "", cid/host, calls, path at minimum
		t.Errorf("scoped table holds %d symbols, want the trace vocabulary", tab.Len())
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		t.Errorf("scoped parse events differ from Default parse:\n got %+v\nwant %+v", got.Events, want.Events)
	}
	if got.ID != want.ID {
		t.Errorf("scoped parse ID = %v, want %v", got.ID, want.ID)
	}
}

// TestEventsFromRecordsScopedSyms: the record-to-event conversion
// honors Options.Syms too.
func TestEventsFromRecordsScopedSyms(t *testing.T) {
	rec, err := parseLine(`0.5 read(3</scoped-evrec-test/f>, "", 8) = 8 <0.001>`)
	if err != nil {
		t.Fatal(err)
	}
	id := trace.CaseID{CID: "scoped-evrec-test", Host: "h", RID: 0}
	tab := intern.NewTable()
	d0 := defaultSymbols()
	evs, err := convertRecords(id, []record{rec}, Options{Syms: tab})
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].FP != "/scoped-evrec-test/f" {
		t.Fatalf("events = %+v", evs)
	}
	if defaultSymbols() != d0 {
		t.Errorf("scoped conversion grew the default table: %d -> %d", d0, defaultSymbols())
	}
}

// defaultProbes counts the probe strings defaultSymbols has interned.
var defaultProbes atomic.Int64

// defaultSymbols is the size of the process-wide symbol table, the one
// a nil Syms option selects, not counting its own probes. Symbols are
// dense, so a fresh probe string receives the table's size as its
// symbol; every earlier probe is one of the symbols below it.
func defaultSymbols() int {
	c := intern.CacheFor(nil)
	defer intern.PutCache(c)
	n := defaultProbes.Add(1)
	return int(c.Intern(fmt.Sprintf("\x00defaultSymbols probe %d", n))) - int(n-1)
}
