package dxt

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"stinspector/internal/intern"
)

// TestParseSymsScoped: ParseSyms canonicalizes the dump's header
// strings (file name, hostname) through the scoped table only, and the
// parsed records are identical to a Default-table parse.
func TestParseSymsScoped(t *testing.T) {
	const dump = `# DXT, file_id: 7, file_name: /scoped-dxt-test/out.dat
# DXT, rank: 0, hostname: scoped-dxt-host
# Module    Rank  Wt/Rd  Segment          Offset       Length    Start(s)      End(s)
 X_POSIX       0  write        0               0         4096      0.0010      0.0020
`
	want, err := ParseSyms(strings.NewReader(dump), nil)
	if err != nil {
		t.Fatal(err)
	}

	tab := intern.NewTable()
	d0 := defaultSymbols()
	got, err := ParseSyms(strings.NewReader(dump), tab)
	if err != nil {
		t.Fatal(err)
	}
	if defaultSymbols() != d0 {
		t.Errorf("scoped parse grew the default table: %d -> %d", d0, defaultSymbols())
	}
	if tab.Len() != 3 { // "", file name, hostname
		t.Errorf("scoped table Len = %d, want 3", tab.Len())
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("scoped records differ:\n got %+v\nwant %+v", got, want)
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
