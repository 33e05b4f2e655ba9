package synth

import (
	"bufio"
	"fmt"
	"io"
	"time"

	"stinspector/internal/trace"
)

// WriteDXT renders an event-log in the darshan-dxt-parser text format
// that internal/dxt ingests, one header per (file, case) group, so the
// equivalence tests can feed one log through every backend. Only
// transfer events (read/write variants) are expressible in DXT; others
// are skipped and counted.
func WriteDXT(w io.Writer, log *trace.EventLog) (skipped int, err error) {
	bw := bufio.NewWriter(w)
	for _, c := range log.Cases() {
		// Group the case's events by file, preserving order.
		byFile := make(map[string][]trace.Event)
		var order []string
		for _, e := range c.Events {
			_, _, ok := dxtOp(e.Call)
			if !ok || !e.HasSize() {
				skipped++
				continue
			}
			if _, seen := byFile[e.FP]; !seen {
				order = append(order, e.FP)
			}
			byFile[e.FP] = append(byFile[e.FP], e)
		}
		for _, fp := range order {
			fmt.Fprintf(bw, "# DXT, file_id: %d, file_name: %s\n", fileID(fp), fp)
			fmt.Fprintf(bw, "# DXT, rank: %d, hostname: %s\n", c.ID.RID, c.ID.Host)
			fmt.Fprintf(bw, "# Module Rank Wt/Rd Segment Offset Length Start(s) End(s)\n")
			for seg, e := range byFile[fp] {
				module, op, _ := dxtOp(e.Call)
				fmt.Fprintf(bw, " %s %d %s %d %d %d %s %s\n",
					module, c.ID.RID, op, seg, int64(0), e.Size,
					fmtSeconds(e.Start), fmtSeconds(e.End()))
			}
		}
	}
	return skipped, bw.Flush()
}

// dxtOp maps a transfer call to its DXT module and operation, the
// inverse of the mapping internal/dxt applies when it parses.
func dxtOp(call string) (module, op string, ok bool) {
	switch call {
	case "write", "writev", "pwritev", "pwritev2":
		return "X_POSIX", "write", true
	case "read", "readv", "preadv", "preadv2":
		return "X_POSIX", "read", true
	case "pwrite64":
		return "X_MPIIO", "write", true
	case "pread64":
		return "X_MPIIO", "read", true
	}
	return "", "", false
}

// fmtSeconds renders a duration as decimal seconds at microsecond
// resolution, matching darshan-dxt-parser output.
func fmtSeconds(d time.Duration) string {
	if d < 0 {
		d = 0
	}
	us := d.Microseconds()
	return fmt.Sprintf("%d.%06d", us/1e6, us%1e6)
}

func fileID(fp string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(fp); i++ {
		h ^= uint32(fp[i])
		h *= 16777619
	}
	return h
}
