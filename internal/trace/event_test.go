package trace

import (
	"strings"
	"testing"
	"time"
	"unsafe"
)

func mkEvent(pid int, call string, start, dur time.Duration, fp string, size int64) Event {
	return Event{PID: pid, Call: call, Start: start, Dur: dur, FP: fp, Size: size}
}

// TestEventSize is a layout gate: the case identity lives on the Case,
// so an Event is its per-record attributes only. Every resident event
// of a source window, an event-log or a decoded archive pays this size.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(Event{}); got != 64 {
		t.Errorf("unsafe.Sizeof(Event{}) = %d B, want 64", got)
	}
}

func TestEventEnd(t *testing.T) {
	e := mkEvent(2, "read", 10*time.Second, 3*time.Millisecond, "/etc/passwd", 42)
	if got, want := e.End(), 10*time.Second+3*time.Millisecond; got != want {
		t.Errorf("End() = %v, want %v", got, want)
	}
}

func TestEventHasSize(t *testing.T) {
	with := mkEvent(2, "read", 0, 0, "/f", 0)
	if !with.HasSize() {
		t.Errorf("size 0 should count as a size (zero-byte read at EOF)")
	}
	without := mkEvent(2, "openat", 0, 0, "/f", SizeUnknown)
	if without.HasSize() {
		t.Errorf("SizeUnknown should not count as a size")
	}
}

func TestFormatTimeOfDay(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want string
	}{
		{0, "00:00:00.000000"},
		{8*time.Hour + 55*time.Minute + 54*time.Second + 153994*time.Microsecond, "08:55:54.153994"},
		{25 * time.Hour, "01:00:00.000000"}, // wraps past midnight
		{23*time.Hour + 59*time.Minute + 59*time.Second + 999999*time.Microsecond, "23:59:59.999999"},
	}
	for _, tc := range tests {
		if got := FormatTimeOfDay(tc.d); got != tc.want {
			t.Errorf("FormatTimeOfDay(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// An event prints its own attributes, starting with the pid; the case
// identity is not part of it.
func TestEventStringForms(t *testing.T) {
	e := mkEvent(9054, "read", 8*time.Hour, 203*time.Microsecond, "/usr/lib/libc.so.6", 832)
	if got, want := e.String(), "[9054] 08:00:00.000000 read(/usr/lib/libc.so.6)=832 <203µs>"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	o := mkEvent(9054, "openat", 8*time.Hour, time.Microsecond, "/etc/passwd", SizeUnknown)
	if strings.Contains(o.String(), "=") {
		t.Errorf("sizeless String() = %q should not render a size", o.String())
	}
}
