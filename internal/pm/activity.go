// Package pm implements the process-mining abstractions of Section IV of
// the paper: activities, the partial mapping from events to activities,
// activity traces, and the activity-log (a multiset of traces) from which
// the Directly-Follows-Graph is synthesized.
package pm

import "strings"

// Activity is a named entity an event maps to, for example
// "read:/usr/lib". By the convention of the paper's mapping f̂
// (Equation 4) an activity value concatenates the system call name and an
// abstraction of the file path; this package treats it as opaque. Any
// string is an activity: the activity-log keys variants by symbol
// sequence, so no byte is reserved as a separator.
type Activity string

// The virtual start and end activities appended to every trace before DFG
// construction, rendered as "●" and "■" in the paper's figures.
const (
	Start Activity = "●" // ●
	End   Activity = "■" // ■
)

// IsVirtual reports whether the activity is one of the start/end markers.
func (a Activity) IsVirtual() bool { return a == Start || a == End }

// Parts splits an activity of the conventional "call:path" form into its
// call and path components. Activities without a separator return the
// whole value as call and an empty path.
func (a Activity) Parts() (call, path string) {
	s := string(a)
	if i := strings.IndexByte(s, ':'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

// makeActivity builds an activity value in the conventional "call:path"
// form.
func makeActivity(call, path string) Activity {
	if path == "" {
		return Activity(call)
	}
	return Activity(call + ":" + path)
}
