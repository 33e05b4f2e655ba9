package dxt

import (
	"errors"
	"strings"
	"testing"

	"stinspector/internal/intern"
)

// FuzzDXTParse: arbitrary text must never panic the DXT parser, every
// rejection must be a *ParseError, and every accepted record set must
// convert to an event-log with one event per record.
func FuzzDXTParse(f *testing.F) {
	f.Add(sample)
	f.Fuzz(func(t *testing.T, data string) {
		recs, err := ParseSyms(strings.NewReader(data), intern.NewTable())
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("rejection is %T, not *ParseError: %v", err, err)
			}
			return
		}
		for i, r := range recs {
			if r.FileName == "" || r.Start < 0 || r.End < r.Start {
				t.Fatalf("record %d accepted with file %q, start %v, end %v", i, r.FileName, r.Start, r.End)
			}
		}
		log, err := ToEventLog("fuzz", recs)
		if err != nil {
			t.Fatalf("ToEventLog: %v", err)
		}
		if log.NumEvents() != len(recs) {
			t.Fatalf("%d records became %d events", len(recs), log.NumEvents())
		}
	})
}
