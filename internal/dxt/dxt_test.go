package dxt

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	"stinspector/internal/dfg"
	"stinspector/internal/iorsim"
	"stinspector/internal/pm"
	"stinspector/internal/trace"
)

const sample = `
# DXT, file_id: 1234, file_name: /p/scratch/u/ssf/test
# DXT, rank: 0, hostname: jwc001
# Module    Rank  Wt/Rd  Segment          Offset       Length    Start(s)      End(s)
 X_POSIX       0  write        0               0      1048576      0.001200      0.004700
 X_POSIX       0  write        1         1048576      1048576      0.004900      0.008100
 X_MPIIO       0   read        2               0      1048576      0.010000      0.012500
# DXT, file_id: 1234, file_name: /p/scratch/u/ssf/test
# DXT, rank: 1, hostname: jwc002
# Module    Rank  Wt/Rd  Segment          Offset       Length    Start(s)      End(s)
 X_POSIX       1  write        0        16777216      1048576      0.002000      0.009000
`

func TestParseSample(t *testing.T) {
	recs, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.Module != "X_POSIX" || !r.IsWrite || r.Rank != 0 {
		t.Errorf("record 0 = %+v", r)
	}
	if r.FileName != "/p/scratch/u/ssf/test" {
		t.Errorf("file = %q", r.FileName)
	}
	if r.Length != 1048576 || r.Offset != 0 {
		t.Errorf("length/offset = %d/%d", r.Length, r.Offset)
	}
	if r.Start != 1200*time.Microsecond || r.End != 4700*time.Microsecond {
		t.Errorf("start/end = %v/%v", r.Start, r.End)
	}
	if recs[2].Module != "X_MPIIO" || recs[2].IsWrite {
		t.Errorf("record 2 = %+v", recs[2])
	}
	if recs[3].Hostname != "jwc002" || recs[3].Rank != 1 {
		t.Errorf("record 3 = %+v", recs[3])
	}
}

func TestToEventLog(t *testing.T) {
	recs, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	log, err := ToEventLog("dxt", recs)
	if err != nil {
		t.Fatal(err)
	}
	if log.NumCases() != 2 || log.NumEvents() != 4 {
		t.Fatalf("log = %d cases / %d events", log.NumCases(), log.NumEvents())
	}
	c := log.Case(trace.CaseID{CID: "dxt", Host: "jwc001", RID: 0})
	if c == nil || c.Len() != 3 {
		t.Fatalf("rank-0 case = %v", c)
	}
	// Calls are mapped per module.
	if c.Events[0].Call != "write" || c.Events[2].Call != "pread64" {
		t.Errorf("calls = %s, %s", c.Events[0].Call, c.Events[2].Call)
	}
	if c.Events[0].Dur != 3500*time.Microsecond {
		t.Errorf("dur = %v", c.Events[0].Dur)
	}
	// The converted log flows through the standard pipeline.
	g := dfg.Build(pm.Build(log, pm.CallTopDirs{Depth: 2}, pm.BuildOptions{Endpoints: true}))
	if !g.HasNode("write:/p/scratch") {
		t.Errorf("DFG missing DXT-derived node: %s", g)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		" X_POSIX 0 write 0 0 100 0.1 0.2",                          // no file header
		"# DXT, file_name: /f\n X_WAT 0 write 0 0 100 0.1 0.2",      // module
		"# DXT, file_name: /f\n X_POSIX 0 chmod 0 0 100 0.1 0.2",    // op
		"# DXT, file_name: /f\n X_POSIX 0 write 0 0 100 0.2 0.1",    // end < start
		"# DXT, file_name: /f\n X_POSIX zero write 0 0 100 0.1 0.2", // rank
		"# DXT, file_name: /f\n X_POSIX 0 write 0 0 abc 0.1 0.2",    // length
		"# DXT, file_name: /f\n X_POSIX 0 write 0 0 100",            // columns
		// Seconds whose nanosecond count overflows int64.
		"# DXT, file_name: /f\n X_POSIX 0 write 0 0 100 9300000000.0 9300000000.5",
		"# DXT, file_name: /f\n" + strings.Repeat("x", 5<<20), // line over the 4 MiB limit
	}
	for _, input := range bad {
		_, err := Parse(strings.NewReader(input))
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Errorf("Parse(%.60q) = %v, want a *ParseError", input, err)
		}
	}
}

// Round trip: an IOR simulation exported as DXT and re-ingested produces
// the same transfer-level DFG as the direct path (sizeless calls like
// openat/lseek are not expressible in DXT and are excluded from both
// sides).
func TestDXTRoundTripAgainstIOR(t *testing.T) {
	res, err := iorsim.Run(iorsim.Config{
		CID: "dxt", Ranks: 4, Hosts: 2, TransferSize: 1 << 20, BlockSize: 4 << 20,
		Segments: 2, Write: true, Read: true, ReorderTasks: true, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	skipped, err := Write(&buf, res.Log)
	if err != nil {
		t.Fatal(err)
	}
	if skipped == 0 {
		t.Errorf("expected openat/lseek/close/fsync records to be skipped")
	}
	recs, err := Parse(&buf)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, buf.String())
	}
	back, err := ToEventLog("dxt", recs)
	if err != nil {
		t.Fatal(err)
	}

	transfersOnly := res.Log.FilterCalls("read", "write", "pread64", "pwrite64")
	if back.NumEvents() != transfersOnly.NumEvents() {
		t.Fatalf("events = %d, want %d", back.NumEvents(), transfersOnly.NumEvents())
	}
	m := pm.CallTopDirs{Depth: 2}
	build := func(el *trace.EventLog) *dfg.Graph {
		return dfg.Build(pm.Build(el, m, pm.BuildOptions{Endpoints: true}))
	}
	direct := build(transfersOnly)
	viaDXT := build(back)
	if !viaDXT.Equal(direct) {
		t.Errorf("DXT round trip changed the transfer DFG:\n%s\nvs\n%s", viaDXT, direct)
	}
	// Byte totals preserved.
	if back.TotalBytes() != transfersOnly.TotalBytes() {
		t.Errorf("bytes = %d, want %d", back.TotalBytes(), transfersOnly.TotalBytes())
	}
}
