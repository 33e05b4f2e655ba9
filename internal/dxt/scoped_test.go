package dxt

import (
	"reflect"
	"strings"
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

// defaultSymbols is the size of the process-wide symbol table, the one
// a nil Syms option selects.
func defaultSymbols() int {
	c := intern.CacheFor(nil)
	defer intern.PutCache(c)
	return c.Table().Len()
}
