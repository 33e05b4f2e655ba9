// Package dxt ingests Darshan DXT (eXtended Tracing) text dumps, the
// per-access trace format produced by darshan-dxt-parser. Section II of
// the paper states that the methodology "does not depend on strace and
// can be applied over data instrumented by one of the other existing
// tools"; this package demonstrates that claim by mapping DXT records
// onto the same event model the strace ingester fills.
//
// The accepted format is the darshan-dxt-parser text output:
//
//	# DXT, file_id: 1234, file_name: /p/scratch/u/ssf/test
//	# DXT, rank: 0, hostname: jwc001
//	# Module    Rank  Wt/Rd  Segment          Offset       Length    Start(s)      End(s)
//	 X_POSIX       0  write        0               0      1048576      0.0012      0.0047
//	 X_MPIIO      0   read         1         1048576      1048576      0.0050      0.0081
//
// Attribute mapping: the Wt/Rd column becomes the call name ("write" or
// "read"; X_MPIIO records become "pwrite64"/"pread64", matching the
// system calls the MPI-IO layer issues), file_name becomes fp, Length
// becomes size, Start(s) becomes the start timestamp (DXT times are
// relative to job start) and End−Start the duration. The rank becomes
// both RID and PID.
package dxt

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"stinspector/internal/intern"
	"stinspector/internal/source"
	"stinspector/internal/trace"
)

// Record is one parsed DXT access line with its file/rank context.
type Record struct {
	Module   string // "X_POSIX" or "X_MPIIO"
	Rank     int
	Hostname string
	FileName string
	IsWrite  bool
	Segment  int
	Offset   int64
	Length   int64
	Start    time.Duration
	End      time.Duration
}

// ParseError reports an unparseable DXT line. Parse rejects every
// malformed input with one; any other error comes from reading.
type ParseError struct {
	Line int
	Text string
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("dxt: line %d: %s: %q", e.Line, e.Msg, e.Text)
}

// Parse reads a darshan-dxt-parser text stream into records. Header
// comments set the current file/rank context; access lines inherit it.
// The header strings (file names, hostnames) canonicalize through the
// process-wide string table, so every record of a group shares the
// interned string and paths seen by other ingestion backends resolve to
// the same allocation.
func Parse(r io.Reader) ([]Record, error) { return parse(r, nil) }

// parse is Parse with the header strings interned into t; nil selects
// the process-wide table.
func parse(r io.Reader, t *intern.Table) ([]Record, error) {
	cache := intern.CacheFor(t)
	defer intern.PutCache(cache)
	var (
		records  []Record
		fileName string
		hostname string
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// Header comments set the file/host context; the rank
			// header is informative only (access lines carry their
			// own rank column).
			if v, ok := headerValue(line, "file_name:"); ok {
				fileName = cache.Canon(v)
			}
			if v, ok := headerValue(line, "hostname:"); ok {
				hostname = cache.Canon(v)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 8 {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: "want 8 columns"}
		}
		module := fields[0]
		if module != "X_POSIX" && module != "X_MPIIO" && module != "X_STDIO" {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: "unknown module"}
		}
		recRank, err1 := strconv.Atoi(fields[1])
		op := strings.ToLower(fields[2])
		seg, err2 := strconv.Atoi(fields[3])
		off, err3 := strconv.ParseInt(fields[4], 10, 64)
		length, err4 := strconv.ParseInt(fields[5], 10, 64)
		start, err5 := parseDecimalSeconds(fields[6])
		end, err6 := parseDecimalSeconds(fields[7])
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil || err5 != nil || err6 != nil {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: "bad numeric column"}
		}
		if op != "write" && op != "read" {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: "op must be write or read"}
		}
		if end < start {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: "end before start"}
		}
		if fileName == "" {
			return nil, &ParseError{Line: lineNo, Text: line, Msg: "access record before file_name header"}
		}
		records = append(records, Record{
			Module:   module,
			Rank:     recRank,
			Hostname: hostname,
			FileName: fileName,
			IsWrite:  op == "write",
			Segment:  seg,
			Offset:   off,
			Length:   length,
			Start:    start,
			End:      end,
		})
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, &ParseError{Line: lineNo + 1, Msg: "line longer than 4 MiB"}
		}
		return nil, err
	}
	return records, nil
}

func headerValue(line, key string) (string, bool) {
	i := strings.Index(line, key)
	if i < 0 {
		return "", false
	}
	v := line[i+len(key):]
	if j := strings.IndexByte(v, ','); j >= 0 {
		v = v[:j]
	}
	return strings.TrimSpace(v), true
}

// call maps a DXT record onto the system call its layer issues.
func (r Record) call() string {
	switch r.Module {
	case "X_MPIIO":
		if r.IsWrite {
			return "pwrite64"
		}
		return "pread64"
	default:
		if r.IsWrite {
			return "write"
		}
		return "read"
	}
}

// Stream groups parsed records into per-(hostname, rank) cases and
// streams them in CaseID order: grouping is a single pass over the
// records, but the expensive per-case step — event construction and the
// time sort — runs lazily in parallelism workers with at most window
// constructed cases resident (0 = 2×workers). Hostless records fall
// back to "host0".
func Stream(cid string, records []Record, parallelism, window int) source.Source {
	groups := make(map[trace.CaseID][]Record)
	for _, r := range records {
		host := r.Hostname
		if host == "" {
			host = "host0"
		}
		id := trace.CaseID{CID: cid, Host: host, RID: r.Rank}
		groups[id] = append(groups[id], r)
	}
	ids := make([]trace.CaseID, 0, len(groups))
	for id := range groups {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return source.Ordered(len(ids), parallelism, window, func(i int) (*trace.Case, error) {
		recs := groups[ids[i]]
		events := make([]trace.Event, len(recs))
		for j, r := range recs {
			events[j] = trace.Event{
				PID:   r.Rank,
				Call:  r.call(),
				Start: r.Start,
				Dur:   r.End - r.Start,
				FP:    r.FileName,
				Size:  r.Length,
			}
		}
		return trace.NewCase(ids[i], events), nil
	})
}

// parseDecimalSeconds parses "12.345678" exactly (no float rounding),
// microsecond-or-finer resolution up to 9 fractional digits.
func parseDecimalSeconds(s string) (time.Duration, error) {
	intPart, fracPart, hasFrac := strings.Cut(s, ".")
	if intPart == "" {
		intPart = "0"
	}
	sec, err := strconv.ParseInt(intPart, 10, 64)
	// Past about 292 years the nanosecond count overflows.
	if err != nil || sec < 0 || sec >= math.MaxInt64/int64(time.Second) {
		return 0, fmt.Errorf("bad seconds %q", s)
	}
	var ns int64
	if hasFrac {
		if fracPart == "" || len(fracPart) > 9 {
			return 0, fmt.Errorf("bad seconds %q", s)
		}
		f, err := strconv.ParseInt(fracPart, 10, 64)
		if err != nil || f < 0 {
			return 0, fmt.Errorf("bad seconds %q", s)
		}
		for i := len(fracPart); i < 9; i++ {
			f *= 10
		}
		ns = f
	}
	return time.Duration(sec)*time.Second + time.Duration(ns), nil
}
