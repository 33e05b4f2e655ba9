package strace

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"stinspector/internal/intern"
	"stinspector/internal/trace"
)

// TestParseCaseScopedSyms: parsing with Options.Syms set canonicalizes
// the trace's strings through the scoped table — every Call, FP, CID
// and Host string of the case is that table's copy, even for novel
// paths — and the parsed events are identical to a process-wide-table
// parse. (That a scoped cache never grows the process-wide table is
// intern.TestCacheFor's check.)
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
	got, err := ParseCase(id, strings.NewReader(text), Options{Syms: tab})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() < 6 { // cid, host, three calls, one path
		t.Errorf("scoped table holds %d strings, want the trace vocabulary", tab.Len())
	}
	checkScoped(t, tab, got)
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
	lr := &lineReader{records: []record{rec}}
	c, err := lr.buildCase(id, Options{Syms: tab})
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Events) != 1 || c.Events[0].FP != "/scoped-evrec-test/f" {
		t.Fatalf("events = %+v", c.Events)
	}
	checkScoped(t, tab, c)
}

// checkScoped fails t unless every Call, FP, CID and Host string of c
// is tab's own copy: canonicalizing it through a cache of tab returns
// the same allocation.
func checkScoped(t *testing.T, tab *intern.Table, c *trace.Case) {
	t.Helper()
	cache := intern.CacheFor(tab)
	defer intern.PutCache(cache)
	owned := func(s string) bool {
		return s == "" || unsafe.StringData(s) == unsafe.StringData(cache.Canon(s))
	}
	if !owned(c.ID.CID) || !owned(c.ID.Host) {
		t.Errorf("case %s: identity strings are not the scoped table's copies", c.ID)
	}
	for _, e := range c.Events {
		if !owned(e.Call) || !owned(e.FP) {
			t.Fatalf("case %s: event strings %q, %q are not the scoped table's copies", c.ID, e.Call, e.FP)
		}
	}
}
