package pm

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"stinspector/internal/race"
	"stinspector/internal/trace"
)

func ev(call, fp string, start time.Duration, size int64) trace.Event {
	return trace.Event{Call: call, FP: fp, Start: start, Dur: 10 * time.Microsecond, Size: size}
}

// fig2aEvents reproduces the event sequence of the paper's Figure 2a
// (the ls command).
func fig2aEvents() []trace.Event {
	return []trace.Event{
		ev("read", "/usr/lib/x86_64-linux-gnu/libselinux.so.1", 1, 832),
		ev("read", "/usr/lib/x86_64-linux-gnu/libc.so.6", 2, 832),
		ev("read", "/usr/lib/x86_64-linux-gnu/libpcre2-8.so.0.10.4", 3, 832),
		ev("read", "/proc/filesystems", 4, 478),
		ev("read", "/proc/filesystems", 5, 0),
		ev("read", "/etc/locale.alias", 6, 2996),
		ev("read", "/etc/locale.alias", 7, 0),
		ev("write", "/dev/pts/7", 8, 50),
	}
}

func fig2aLog(t *testing.T) *trace.EventLog {
	t.Helper()
	var cases []*trace.Case
	for _, rid := range []int{9042, 9043, 9045} {
		cases = append(cases, trace.NewCase(trace.CaseID{CID: "a", Host: "host1", RID: rid}, fig2aEvents()))
	}
	return trace.MustNewEventLog(cases...)
}

func TestCallTopDirsEquation4(t *testing.T) {
	m := CallTopDirs{Depth: 2}
	tests := []struct {
		call, fp string
		want     Activity
	}{
		// The paper: the first line of Figure 2b maps to "read:/usr/lib".
		{"read", "/usr/lib/x86_64-linux-gnu/libselinux.so.1", "read:/usr/lib"},
		{"read", "/proc/filesystems", "read:/proc/filesystems"},
		{"write", "/dev/pts/7", "write:/dev/pts"},
		{"read", "/etc/locale.alias", "read:/etc/locale.alias"},
		{"read", "/usr/share/zoneinfo/Europe/Berlin", "read:/usr/share"},
	}
	for _, tc := range tests {
		a, ok := m.Map(trace.Event{Call: tc.call, FP: tc.fp})
		if !ok || a != tc.want {
			t.Errorf("f̂(%s %s) = %q (%v), want %q", tc.call, tc.fp, a, ok, tc.want)
		}
	}
}

// truncatePathSplit is truncatePath's split-and-join definition: the
// leading "/" plus the first depth components of the rest.
func truncatePathSplit(fp string, depth int) string {
	if depth <= 0 || !strings.HasPrefix(fp, "/") {
		return fp
	}
	parts := strings.Split(fp[1:], "/")
	if len(parts) <= depth {
		return fp
	}
	return "/" + strings.Join(parts[:depth], "/")
}

func TestTruncatePath(t *testing.T) {
	tests := []struct {
		fp    string
		depth int
		want  string
	}{
		{"/usr/lib/x/y.so", 2, "/usr/lib"},
		{"/usr/lib", 2, "/usr/lib"},
		{"/usr", 2, "/usr"},
		{"/", 2, "/"},
		{"/", 1, "/"},
		{"/", 0, "/"},
		{"relative/path/x", 2, "relative/path/x"},
		{"relative/path/x", 0, "relative/path/x"},
		{"", 2, ""},
		{"/a/b/c", 0, "/a/b/c"},
		{"/a/b/c", -1, "/a/b/c"},
		{"/a/b/c", 1, "/a"},
		{"/a/b/c", 3, "/a/b/c"},
		{"/a/b/c", 9, "/a/b/c"},
		{"//", 1, "/"},
		{"//a//b", 1, "/"},
		{"//a//b", 2, "//a"},
		{"//a//b", 3, "//a/"},
		{"/a/b/", 1, "/a"},
		{"/a/b/", 2, "/a/b"},
		{"/a/b/", 3, "/a/b/"},
		{"/a/", 1, "/a"},
		{"/a/", 2, "/a/"},
	}
	for _, tc := range tests {
		if got := truncatePath(tc.fp, tc.depth); got != tc.want {
			t.Errorf("TruncatePath(%q, %d) = %q, want %q", tc.fp, tc.depth, got, tc.want)
		}
		if ref := truncatePathSplit(tc.fp, tc.depth); ref != tc.want {
			t.Errorf("split-and-join TruncatePath(%q, %d) = %q, want %q", tc.fp, tc.depth, ref, tc.want)
		}
	}
	// Every path over a small alphabet, every depth: the scan equals
	// the split-and-join definition byte for byte.
	var paths []string
	var gen func(prefix string, n int)
	gen = func(prefix string, n int) {
		paths = append(paths, prefix)
		if n == 0 {
			return
		}
		for _, c := range []string{"/", "a", "bc"} {
			gen(prefix+c, n-1)
		}
	}
	gen("", 6)
	for _, fp := range paths {
		for depth := -1; depth <= 7; depth++ {
			if got, want := truncatePath(fp, depth), truncatePathSplit(fp, depth); got != want {
				t.Errorf("TruncatePath(%q, %d) = %q, split-and-join gives %q", fp, depth, got, want)
			}
		}
	}
	if race.Enabled {
		return
	}
	allocs := testing.AllocsPerRun(100, func() {
		for _, tc := range tests {
			_ = truncatePath(tc.fp, tc.depth)
		}
	})
	if allocs != 0 {
		t.Errorf("TruncatePath allocated %.1f times per pass, want 0", allocs)
	}
}

func TestCallFileName(t *testing.T) {
	m := CallFileName{}
	a, _ := m.Map(trace.Event{Call: "read", FP: "/usr/lib/x86_64-linux-gnu/libselinux.so.1"})
	if a != "read:libselinux.so.1" {
		t.Errorf("CallFileName = %q", a)
	}
	m2 := CallFileName{Keep: 2}
	a, _ = m2.Map(trace.Event{Call: "read", FP: "/usr/lib/x86_64-linux-gnu/libselinux.so.1"})
	if a != "read:x86_64-linux-gnu/libselinux.so.1" {
		t.Errorf("CallFileName{2} = %q", a)
	}
}

func TestEnvMapping(t *testing.T) {
	m := NewEnvMapping(0,
		PrefixVar{Prefix: "/p/scratch/user", Var: "$SCRATCH"},
		PrefixVar{Prefix: "/p/home/user", Var: "$HOME"},
		PrefixVar{Prefix: "/p/software", Var: "$SOFTWARE"},
		PrefixVar{Prefix: "/dev/shm", Var: "Node Local"},
		PrefixVar{Prefix: "/tmp", Var: "Node Local"},
	)
	tests := []struct{ fp, want string }{
		{"/p/scratch/user/ssf/test", "$SCRATCH"},
		{"/p/home/user/.bashrc", "$HOME"},
		{"/p/software/lib/libmpi.so", "$SOFTWARE"},
		{"/dev/shm/psm2_shm.42", "Node Local"},
		{"/tmp/ompi.sock", "Node Local"},
		{"/usr/lib/x/y.so", "/usr/lib"}, // fallback truncation
		{"/p/scratchy/other", "/p/scratchy"},
	}
	for _, tc := range tests {
		if got := m.Abstract(tc.fp); got != tc.want {
			t.Errorf("Abstract(%q) = %q, want %q", tc.fp, got, tc.want)
		}
	}

	// Depth 1 distinguishes the ssf and fpp run directories (Fig. 8b).
	m1 := NewEnvMapping(1, PrefixVar{Prefix: "/p/scratch/user", Var: "$SCRATCH"})
	tests = []struct{ fp, want string }{
		{"/p/scratch/user/ssf/test", "$SCRATCH/ssf"},
		{"/p/scratch/user/fpp/test.00000042", "$SCRATCH/fpp"},
		{"/p/scratch/user", "$SCRATCH"},
	}
	for _, tc := range tests {
		if got := m1.Abstract(tc.fp); got != tc.want {
			t.Errorf("depth-1 Abstract(%q) = %q, want %q", tc.fp, got, tc.want)
		}
	}

	// Longest prefix wins regardless of declaration order.
	m2 := NewEnvMapping(0,
		PrefixVar{Prefix: "/p", Var: "$P"},
		PrefixVar{Prefix: "/p/scratch", Var: "$SCRATCH"},
	)
	if got := m2.Abstract("/p/scratch/x"); got != "$SCRATCH" {
		t.Errorf("longest prefix: got %q", got)
	}
	if got := m2.Abstract("/p/other"); got != "$P" {
		t.Errorf("shorter prefix: got %q", got)
	}
}

func TestActivityParts(t *testing.T) {
	a := makeActivity("read", "/usr/lib")
	call, path := a.Parts()
	if call != "read" || path != "/usr/lib" {
		t.Errorf("Parts = %q, %q", call, path)
	}
	call, path = Activity("lseek").Parts()
	if call != "lseek" || path != "" {
		t.Errorf("bare Parts = %q, %q", call, path)
	}
	if !Start.IsVirtual() || !End.IsVirtual() || a.IsVirtual() {
		t.Errorf("IsVirtual misclassifies")
	}
}

// TestBuildFig2aTrace verifies σ_f̂(a9042) exactly as printed in the paper.
func TestBuildFig2aTrace(t *testing.T) {
	l := Build(fig2aLog(t), CallTopDirs{Depth: 2}, BuildOptions{})
	if l.NumVariants() != 1 {
		t.Fatalf("variants = %d, want 1 (all three ranks behave identically)", l.NumVariants())
	}
	v := l.Variants()[0]
	if v.Mult != 3 {
		t.Errorf("multiplicity = %d, want 3", v.Mult)
	}
	want := Trace{
		"read:/usr/lib", "read:/usr/lib", "read:/usr/lib",
		"read:/proc/filesystems", "read:/proc/filesystems",
		"read:/etc/locale.alias", "read:/etc/locale.alias",
		"write:/dev/pts",
	}
	if !reflect.DeepEqual(v.Seq, want) {
		t.Errorf("trace = %v\nwant %v", v.Seq, want)
	}
}

func TestBuildWithEndpoints(t *testing.T) {
	l := Build(fig2aLog(t), CallTopDirs{Depth: 2}, BuildOptions{Endpoints: true})
	v := l.Variants()[0]
	if v.Seq[0] != Start || v.Seq[len(v.Seq)-1] != End {
		t.Errorf("endpoints missing: %v", v.Seq)
	}
	acts := 0
	for _, a := range v.Seq {
		if !a.IsVirtual() {
			acts++
		}
	}
	if acts*v.Mult != 8*3 {
		t.Errorf("activity occurrences = %d, want 24 (virtual endpoints excluded)", acts*v.Mult)
	}
	if l.NumTraces() != 3 {
		t.Errorf("NumTraces = %d, want 3", l.NumTraces())
	}
}

// pathMapping is f̂ made partial: events whose path does not contain
// substr map to no activity.
func pathMapping(substr string) Mapping {
	return MappingFunc(func(e trace.Event) (Activity, bool) {
		if !strings.Contains(e.FP, substr) {
			return "", false
		}
		return CallTopDirs{Depth: 2}.Map(e)
	})
}

func TestBuildPartialMapping(t *testing.T) {
	m := pathMapping("/usr/lib")
	l := Build(fig2aLog(t), m, BuildOptions{})
	if l.NumVariants() != 1 {
		t.Fatalf("variants = %d", l.NumVariants())
	}
	v := l.Variants()[0]
	want := Trace{"read:/usr/lib", "read:/usr/lib", "read:/usr/lib"}
	if !reflect.DeepEqual(v.Seq, want) {
		t.Errorf("restricted trace = %v, want %v", v.Seq, want)
	}
	if l.MappedEvents() != 9 || l.UnmappedEvents() != 15 {
		t.Errorf("mapped/unmapped = %d/%d, want 9/15", l.MappedEvents(), l.UnmappedEvents())
	}
}

// A case with no mapped event leaves no trace, endpoints or not.
func TestBuildEmptyTraces(t *testing.T) {
	m := pathMapping("/no/such/path")
	for _, opts := range []BuildOptions{{}, {Endpoints: true}} {
		if l := Build(fig2aLog(t), m, opts); l.NumTraces() != 0 {
			t.Errorf("%+v: dropped empty traces expected, got %d", opts, l.NumTraces())
		}
	}
}

func TestRestrictCalls(t *testing.T) {
	writes := MappingFunc(func(e trace.Event) (Activity, bool) {
		if e.Call != "write" {
			return "", false
		}
		return CallTopDirs{Depth: 2}.Map(e)
	})
	l := Build(fig2aLog(t), writes, BuildOptions{})
	for _, v := range l.Variants() {
		for _, a := range v.Seq {
			if a != "write:/dev/pts" {
				t.Errorf("variant %v holds %s, want only write:/dev/pts", v.Seq, a)
			}
		}
	}
	if l.NumVariants() == 0 {
		t.Error("no variant holds write:/dev/pts")
	}
}

func TestUnionLogs(t *testing.T) {
	el := fig2aLog(t)
	m := CallTopDirs{Depth: 2}
	whole := Build(el, m, BuildOptions{Endpoints: true})

	// Split the event-log in two and union the activity-logs.
	g, r := el.Partition(func(c *trace.Case) bool { return c.ID.RID == 9042 })
	u := Build(g, m, BuildOptions{Endpoints: true})
	u.Merge(Build(r, m, BuildOptions{Endpoints: true}))
	if u.NumTraces() != whole.NumTraces() || u.NumVariants() != whole.NumVariants() {
		t.Errorf("union = %d traces %d variants, want %d/%d",
			u.NumTraces(), u.NumVariants(), whole.NumTraces(), whole.NumVariants())
	}
	if u.Variants()[0].Mult != 3 {
		t.Errorf("union multiplicity = %d, want 3", u.Variants()[0].Mult)
	}
}

func TestLogString(t *testing.T) {
	l := Build(fig2aLog(t), CallTopDirs{Depth: 2}, BuildOptions{})
	s := l.String()
	if !strings.Contains(s, "^3") || !strings.Contains(s, "read:/usr/lib") {
		t.Errorf("String() = %s", s)
	}
}

func TestVariantCasesRecorded(t *testing.T) {
	l := Build(fig2aLog(t), CallTopDirs{Depth: 2}, BuildOptions{})
	v := l.Variants()[0]
	if len(v.Cases) != 3 {
		t.Fatalf("cases = %v", v.Cases)
	}
	rids := map[int]bool{}
	for _, id := range v.Cases {
		rids[id.RID] = true
	}
	if !rids[9042] || !rids[9043] || !rids[9045] {
		t.Errorf("case rids = %v", v.Cases)
	}
}
