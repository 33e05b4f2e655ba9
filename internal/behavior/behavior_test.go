package behavior_test

import (
	"bytes"
	"errors"
	"testing"

	"stinspector/internal/behavior"
	"stinspector/internal/snapshot/wire"
	"stinspector/internal/synth/profiles"
	"stinspector/internal/trace"
)

func mkEvent(pid int, call, fp string) trace.Event {
	return trace.Event{PID: pid, Call: call, Dur: 1000, FP: fp}
}

// TestClassify pins the call taxonomy: every behavior call maps to its
// class, and the non-behavior I/O bookkeeping calls stay outside.
func TestClassify(t *testing.T) {
	for call, want := range map[string]behavior.Op{
		"openat": behavior.OpOpened, "open": behavior.OpOpened, "openat2": behavior.OpOpened,
		"read": behavior.OpRead, "pread64": behavior.OpRead, "preadv2": behavior.OpRead,
		"write": behavior.OpWritten, "truncate": behavior.OpWritten, "mkdirat": behavior.OpWritten,
		"unlink": behavior.OpDeleted, "unlinkat": behavior.OpDeleted, "rmdir": behavior.OpDeleted,
		"rename": behavior.OpRenamed, "renameat2": behavior.OpRenamed,
		"execve": behavior.OpSpawned, "execveat": behavior.OpSpawned,
		"connect": behavior.OpConnected,
	} {
		if got, ok := behavior.Classify(call); !ok || got != want {
			t.Errorf("Classify(%q) = %v, %v; want %v, true", call, got, ok, want)
		}
	}
	for _, call := range []string{"close", "lseek", "fsync", "brk", "mmap", ""} {
		if _, ok := behavior.Classify(call); ok {
			t.Errorf("Classify(%q) accepted a non-behavior call", call)
		}
	}
}

// TestProfileFoldViews: a small hand-built case yields the expected
// per-class subjects, the merged view sums across cases, and Totals
// reports the distinct files / hosts / commands split.
func TestProfileFoldViews(t *testing.T) {
	a := trace.NewCase(trace.CaseID{CID: "app", Host: "h1", RID: 1}, []trace.Event{
		mkEvent(1, "openat", "/data/in.bin"),
		mkEvent(1, "read", "/data/in.bin"),
		mkEvent(1, "read", "/data/in.bin"),
		mkEvent(1, "write", "/data/out.bin"),
		mkEvent(1, "close", "/data/in.bin"), // outside the taxonomy
		mkEvent(1, "execve", "/usr/bin/gzip -9 out.bin"),
		mkEvent(1, "connect", "10.0.0.7:443"),
	})
	b := trace.NewCase(trace.CaseID{CID: "app", Host: "h2", RID: 2}, []trace.Event{
		mkEvent(2, "connect", "10.0.0.7:443"),
		mkEvent(2, "connect", "/run/db.sock"),
		mkEvent(2, "unlink", "/data/out.bin"),
	})
	p := behavior.New()
	p.AddCase(a)
	p.AddCase(b)

	if p.NumCases() != 2 || p.Events() != 9 {
		t.Fatalf("profile has %d cases / %d events, want 2 / 9", p.NumCases(), p.Events())
	}
	cs := p.Cases()
	if len(cs) != 2 || cs[0].ID != a.ID || cs[1].ID != b.ID {
		t.Fatalf("Cases() order = %v", cs)
	}
	if len(cs[0].Read) != 1 || cs[0].Read[0] != (behavior.Entry{Subject: "/data/in.bin", Count: 2}) {
		t.Errorf("case a read entries = %v", cs[0].Read)
	}
	if len(cs[0].Spawned) != 1 || cs[0].Spawned[0].Subject != "/usr/bin/gzip -9 out.bin" {
		t.Errorf("case a spawned entries = %v", cs[0].Spawned)
	}
	m := p.Merged()
	if m.Events != 9 {
		t.Errorf("merged events = %d, want 9", m.Events)
	}
	if len(m.Connected) != 2 || m.Connected[0].Subject != "/run/db.sock" ||
		m.Connected[1] != (behavior.Entry{Subject: "10.0.0.7:443", Count: 2}) {
		t.Errorf("merged connected = %v", m.Connected)
	}
	files, hosts, cmds := p.Totals()
	// Files: /data/in.bin, /data/out.bin. Hosts: the endpoint and the
	// socket path. Commands: the one spawn.
	if files != 2 || hosts != 2 || cmds != 1 {
		t.Errorf("Totals = %d files, %d hosts, %d commands; want 2, 2, 1", files, hosts, cmds)
	}
}

// TestMergeExact: for every generator profile — including the hostile
// vocabularies and the multitenant shape — merging per-shard partial
// profiles in any order reproduces the sequential fold's rendering
// byte-for-byte, nil inputs are no-ops, and merge does not disturb its
// source.
func TestMergeExact(t *testing.T) {
	for _, p := range profiles.All() {
		t.Run(p.Name, func(t *testing.T) {
			el := p.Generate("bm", 9, 60, 21)
			want := behavior.FromLog(el).RenderText()

			cases := el.Cases()
			shard := func(lo, hi int) *behavior.Profile {
				q := behavior.New()
				for _, c := range cases[lo:hi] {
					q.AddCase(c)
				}
				return q
			}
			merge := func(ps ...*behavior.Profile) *behavior.Profile {
				out := behavior.New()
				for _, q := range ps {
					out.Merge(q)
				}
				return out
			}
			a, b, c := shard(0, 3), shard(3, 7), shard(7, 9)
			bBefore := b.RenderText()

			if got := merge(a, b, c).RenderText(); got != want {
				t.Error("forward shard merge differs from the sequential fold")
			}
			if got := merge(c, nil, a, b, nil).RenderText(); got != want {
				t.Error("reordered merge with nils differs from the sequential fold")
			}
			if b.RenderText() != bBefore {
				t.Error("Merge modified a source profile")
			}
		})
	}
}

// TestSnapshotFixedPoint: for every generator profile the snapshot
// section is a fixed point — decode(encode(p)) renders identically and
// re-encodes to the identical bytes, whatever fold shape built p.
func TestSnapshotFixedPoint(t *testing.T) {
	for _, p := range profiles.All() {
		t.Run(p.Name, func(t *testing.T) {
			el := p.Generate("bs", 7, 50, 33)
			seq := behavior.FromLog(el)

			// A sharded fold must hit the same encoding as the
			// sequential one: the dictionary order is canonical, not
			// insertion-historical.
			cases := el.Cases()
			sharded := behavior.New()
			for i := len(cases) - 1; i >= 0; i-- {
				part := behavior.New()
				part.AddCase(cases[i])
				sharded.Merge(part)
			}
			enc := seq.EncodeSnapshot()
			if !bytes.Equal(sharded.EncodeSnapshot(), enc) {
				t.Fatal("sharded fold encodes differently from the sequential fold")
			}

			got, err := behavior.DecodeSnapshot(enc)
			if err != nil {
				t.Fatal(err)
			}
			if got.RenderText() != seq.RenderText() {
				t.Error("decoded profile renders differently")
			}
			if !bytes.Equal(got.EncodeSnapshot(), enc) {
				t.Error("re-encode after decode differs: the section is not a fixed point")
			}
		})
	}
}

// TestSnapshotHostileBytes: truncations and bit flips of a snapshot
// section must decode to an error or to equivalent state, never panic.
func TestSnapshotHostileBytes(t *testing.T) {
	el, _ := profiles.Lookup("hostileargs")
	enc := behavior.FromLog(el.Generate("bc", 3, 30, 2)).EncodeSnapshot()

	for cut := 0; cut < len(enc); cut++ {
		if _, err := behavior.DecodeSnapshot(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
	mut := make([]byte, len(enc))
	for pos := 0; pos < len(enc); pos++ {
		copy(mut, enc)
		mut[pos] ^= 0x08
		got, err := behavior.DecodeSnapshot(mut)
		if err == nil {
			if !bytes.Equal(got.EncodeSnapshot(), enc) {
				// The profile layer has no checksum of its own — that
				// is the container's job — so a flip may legitimately
				// decode to *different* valid state (e.g. a changed
				// count); it must simply never panic or corrupt memory.
				_ = got.RenderText()
			}
		}
	}
	var ce *wire.CorruptError
	if _, err := behavior.DecodeSnapshot([]byte{0xff, 0xff, 0xff, 0xff, 0xff}); !errors.As(err, &ce) {
		t.Errorf("garbage header: err = %v, want CorruptError", err)
	}
}

// TestSnapshotSortCacheTracksMerge: EncodeSnapshot caches each case's
// subject order, so a merge that adds a subject to a case already
// encoded must show up in the next encoding — which must equal the
// bytes of a profile built from scratch over the same events.
func TestSnapshotSortCacheTracksMerge(t *testing.T) {
	id := trace.CaseID{CID: "app", Host: "h1", RID: 1}
	first := []trace.Event{
		mkEvent(1, "read", "/data/c.bin"),
		mkEvent(1, "read", "/data/a.bin"),
		mkEvent(1, "write", "/data/out.bin"),
	}
	second := []trace.Event{
		mkEvent(1, "read", "/data/b.bin"), // new subject between the two
		mkEvent(1, "read", "/data/a.bin"), // known subject, count only
	}
	p := behavior.New()
	p.AddCase(trace.NewCase(id, first))
	before := p.EncodeSnapshot()

	q := behavior.New()
	q.AddCase(trace.NewCase(id, second))
	p.Merge(q)

	fresh := behavior.New()
	fresh.AddCase(trace.NewCase(id, append(append([]trace.Event(nil), first...), second...)))
	want := fresh.EncodeSnapshot()
	got := p.EncodeSnapshot()
	if bytes.Equal(got, before) {
		t.Fatal("encoding did not change after the merge added a subject")
	}
	if !bytes.Equal(got, want) {
		t.Error("encoding after merge differs from a freshly built profile")
	}
}

// TestSnapshotSharedStrings: a string that is both a case identity
// component and a subject is written to the dictionary once, whichever
// use comes first, so the section decodes and is a fixed point.
func TestSnapshotSharedStrings(t *testing.T) {
	p := behavior.New()
	// Subject "b" comes before the CID "b"; the Host "c" before the
	// subject "c"; the Host "h" right before the subject "h".
	p.AddCase(trace.NewCase(trace.CaseID{CID: "a", Host: "c", RID: 1}, []trace.Event{
		mkEvent(1, "openat", "b"),
	}))
	p.AddCase(trace.NewCase(trace.CaseID{CID: "b", Host: "h", RID: 2}, []trace.Event{
		mkEvent(2, "openat", "c"),
		mkEvent(2, "connect", "h"),
	}))
	enc := p.EncodeSnapshot()
	got, err := behavior.DecodeSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got.RenderText() != p.RenderText() {
		t.Error("decoded profile renders differently")
	}
	if !bytes.Equal(got.EncodeSnapshot(), enc) {
		t.Error("re-encode after decode differs")
	}
}
