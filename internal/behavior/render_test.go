package behavior_test

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"stinspector/internal/behavior"
	"stinspector/internal/race"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

// refOps lists a CaseProfile's operation classes in declaration order
// with their names, for the reference writer.
func refOps(cp behavior.CaseProfile) []struct {
	name    string
	entries []behavior.Entry
} {
	return []struct {
		name    string
		entries []behavior.Entry
	}{
		{"opened", cp.Opened}, {"read", cp.Read}, {"written", cp.Written},
		{"deleted", cp.Deleted}, {"renamed", cp.Renamed},
		{"spawned", cp.Spawned}, {"connected", cp.Connected},
	}
}

// refRender is the fmt-based reference writer for RenderText's format:
// the header, the merged view, then every case, one %q-quoted subject
// line per entry.
func refRender(cases int, merged behavior.CaseProfile, perCase []behavior.CaseProfile) string {
	var b strings.Builder
	fmt.Fprintf(&b, "behavior: %d cases, %d events\n", cases, merged.Events)
	write := func(label string, cp behavior.CaseProfile) {
		fmt.Fprintf(&b, "%s: %d events\n", label, cp.Events)
		for _, op := range refOps(cp) {
			for _, e := range op.entries {
				fmt.Fprintf(&b, "  %s %q %d\n", op.name, e.Subject, e.Count)
			}
		}
	}
	write("merged", merged)
	for _, cp := range perCase {
		write(cp.ID.String(), cp)
	}
	return b.String()
}

// naiveProfile computes the per-case and merged views straight from an
// event-log with maps, independently of behavior.Profile.
func naiveProfile(el *trace.EventLog) (behavior.CaseProfile, []behavior.CaseProfile) {
	type key struct {
		op      int // index into the CaseProfile's per-class lists
		subject string
	}
	views := func(id trace.CaseID, events int, counts map[key]int) behavior.CaseProfile {
		cp := behavior.CaseProfile{ID: id, Events: events}
		dst := []*[]behavior.Entry{
			&cp.Opened, &cp.Read, &cp.Written, &cp.Deleted,
			&cp.Renamed, &cp.Spawned, &cp.Connected,
		}
		for k, n := range counts {
			*dst[k.op] = append(*dst[k.op], behavior.Entry{Subject: k.subject, Count: n})
		}
		for _, es := range dst {
			sort.Slice(*es, func(i, j int) bool { return (*es)[i].Subject < (*es)[j].Subject })
		}
		return cp
	}
	all := make(map[key]int)
	total := 0
	var perCase []behavior.CaseProfile
	for _, c := range el.Cases() {
		counts := make(map[key]int)
		events := 0
		for _, e := range c.Events {
			op, ok := naiveClass[e.Call]
			if !ok || e.FP == "" {
				continue
			}
			counts[key{op, e.FP}]++
			all[key{op, e.FP}]++
			events++
		}
		if events > 0 {
			perCase = append(perCase, views(c.ID, events, counts))
			total += events
		}
	}
	sort.Slice(perCase, func(i, j int) bool { return perCase[i].ID.Less(perCase[j].ID) })
	return views(trace.CaseID{}, total, all), perCase
}

// naiveClass is the behavior taxonomy written out as a table: each
// call's index into the Opened, Read, Written, Deleted, Renamed,
// Spawned and Connected lists of a CaseProfile.
var naiveClass = map[string]int{
	"open": 0, "openat": 0, "openat2": 0,
	"read": 1, "pread64": 1, "readv": 1, "preadv": 1, "preadv2": 1,
	"write": 2, "pwrite64": 2, "writev": 2, "pwritev": 2, "pwritev2": 2,
	"creat": 2, "truncate": 2, "ftruncate": 2, "mkdir": 2, "mkdirat": 2,
	"unlink": 3, "unlinkat": 3, "rmdir": 3,
	"rename": 4, "renameat": 4, "renameat2": 4,
	"execve": 5, "execveat": 5,
	"connect": 6,
}

// hostileLog is a small event-log whose subjects need every quoting
// path of %q: quotes, backslashes, control bytes, printable and
// non-printable non-ASCII UTF-8, and invalid UTF-8. The same subjects
// recur across operations and cases so the merged view sums them.
func hostileLog(t *testing.T) *trace.EventLog {
	subjects := []string{
		`/data/plain.bin`,
		`/data/"quoted".bin`,
		`C:\dir\file`,
		"/tmp/ctl\x00\x01\t\n\r\x1b\x7f",
		"/srv/naïve/日本語",
		"/srv/zero\u200bwidth\u2028line",
		"/bad/\xff\xfe\xc3",
		"/bad/\xed\xa0\x80surrogate",
		"\"",
		"\\",
		" ",
		"~",
	}
	calls := []string{"openat", "read", "write", "unlink", "rename", "execve", "connect"}
	var cases []*trace.Case
	for ci := 0; ci < 3; ci++ {
		var evs []trace.Event
		for i, s := range subjects {
			for k := 0; k <= (i+ci)%3; k++ {
				evs = append(evs, trace.Event{
					PID: 10 + ci, Call: calls[(i+k+ci)%len(calls)], Dur: 1000, FP: s,
					Start: time.Duration(1000*i + k),
				})
			}
		}
		cases = append(cases, trace.NewCase(trace.CaseID{CID: "h\"x", Host: "n\\1", RID: ci - 1}, evs))
	}
	el, err := trace.NewEventLog(cases...)
	if err != nil {
		t.Fatal(err)
	}
	return el
}

// TestRenderTextMatchesReference: RenderText is byte-identical to the
// fmt-based reference writer, both over the profile's own Cases and
// Merged views and over a naive map-based model of the event-log, for
// every generator profile and for subjects that exercise every %q
// quoting path.
func TestRenderTextMatchesReference(t *testing.T) {
	logs := map[string]*trace.EventLog{"hostile-subjects": hostileLog(t)}
	for _, p := range profiles.All() {
		logs[p.Name] = p.Generate("rt", 8, 300, 5)
	}
	for name, el := range logs {
		t.Run(name, func(t *testing.T) {
			p := fromLog(el)
			got := p.RenderText()
			if want := refRender(p.NumCases(), p.Merged(), p.Cases()); got != want {
				t.Errorf("RenderText differs from the reference writer over Cases/Merged\n got: %.300q\nwant: %.300q", got, want)
			}
			merged, perCase := naiveProfile(el)
			if want := refRender(len(perCase), merged, perCase); got != want {
				t.Errorf("RenderText differs from the reference writer over the naive model\n got: %.300q\nwant: %.300q", got, want)
			}
		})
	}
}

// TestRenderTextAllocs: rendering costs a bounded number of allocations
// per case, independent of how many subjects the cases hold — every
// subject line is appended into one pre-sized buffer. Skipped under
// -race (instrumented allocator).
func TestRenderTextAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation gate skipped under -race")
	}
	gen, ok := profiles.Lookup("multitenant")
	if !ok {
		t.Fatal("profile multitenant missing")
	}
	const nCases = 24
	p := fromLog(gen.Generate("ra", nCases, 2000, 11))
	allocs := testing.AllocsPerRun(3, func() { _ = p.RenderText() })
	budget := float64(8*p.NumCases() + 64)
	t.Logf("RenderText: %.0f allocs for %d cases (budget %.0f)", allocs, p.NumCases(), budget)
	if p.NumCases() != nCases {
		t.Fatalf("profile has %d cases, want %d", p.NumCases(), nCases)
	}
	if allocs > budget {
		t.Errorf("RenderText made %.0f allocations, over the %.0f budget (8 per case + 64)", allocs, budget)
	}
}

// TestQueriesReadOnly: every query only reads the profile, so queries
// running at once on several goroutines agree with a sequential call
// (run under -race to check that none writes).
func TestQueriesReadOnly(t *testing.T) {
	gen, ok := profiles.Lookup("multitenant")
	if !ok {
		t.Fatal("profile multitenant missing")
	}
	p := fromLog(gen.Generate("ro", 6, 200, 3))
	text, enc := p.RenderText(), string(p.EncodeSnapshot())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := string(p.EncodeSnapshot()); got != enc {
				t.Error("concurrent EncodeSnapshot differs")
			}
			if got := refRender(p.NumCases(), p.Merged(), p.Cases()); got != text {
				t.Error("concurrent Cases/Merged differ")
			}
			p.Totals()
			if got := p.RenderText(); got != text {
				t.Error("concurrent RenderText differs")
			}
		}()
	}
	wg.Wait()
}
