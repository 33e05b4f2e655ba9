package simfs

import (
	"fmt"
	"testing"
	"time"
)

func newFS() *FS { return New(DefaultParams(), 1) }

func TestOpenBasics(t *testing.T) {
	fs := newFS()
	d := fs.Open(0, 0, "/p/scratch/user/ssf/test", true)
	if d <= 0 {
		t.Fatalf("open duration = %v", d)
	}
	// First (creating) open pays the directory create service but no
	// shared-open penalty.
	if fs.SharedOpens != 0 || fs.DirCreates != 1 {
		t.Errorf("counters after first open: shared=%d creates=%d", fs.SharedOpens, fs.DirCreates)
	}
}

func TestSharedOpenSerialization(t *testing.T) {
	fs := newFS()
	path := "/p/scratch/user/ssf/test"
	first := fs.Open(0, 0, path, true)
	var durs []time.Duration
	// Many ranks open the shared file at the same instant: the
	// metanode serializes them, so durations must grow roughly
	// linearly with queue position (mechanism 1).
	for rank := 1; rank <= 10; rank++ {
		durs = append(durs, fs.Open(rank, first, path, true))
	}
	if fs.SharedOpens != 10 {
		t.Fatalf("shared opens = %d", fs.SharedOpens)
	}
	for i := 1; i < len(durs); i++ {
		if durs[i] <= durs[i-1] {
			t.Errorf("open %d (%v) not slower than open %d (%v) under contention",
				i, durs[i], i-1, durs[i-1])
		}
	}
	p := DefaultParams()
	if durs[9] < 8*p.SharedOpenSvc {
		t.Errorf("10th queued open = %v, want ≥ 8×%v", durs[9], p.SharedOpenSvc)
	}
}

func TestReadOnlySharedOpensCheap(t *testing.T) {
	fs := newFS()
	path := "/p/software/lib/libc.so.6"
	for rank := 0; rank < 20; rank++ {
		d := fs.Open(rank, 0, path, false)
		if d > time.Millisecond {
			t.Fatalf("read-only open of shared lib took %v", d)
		}
	}
	if fs.SharedOpens != 0 {
		t.Errorf("read-only opens counted as shared: %d", fs.SharedOpens)
	}
}

func TestDirCreateSerialization(t *testing.T) {
	fs := newFS()
	var last time.Duration
	for rank := 0; rank < 8; rank++ {
		d := fs.Open(rank, 0, fmt.Sprintf("/p/scratch/user/fpp/test.%08d", rank), true)
		if rank > 0 && d <= last {
			t.Errorf("create %d (%v) not slower than %d (%v): directory metanode must serialize",
				rank, d, rank-1, last)
		}
		last = d
	}
	if fs.DirCreates != 8 {
		t.Errorf("dir creates = %d", fs.DirCreates)
	}
	// Creates in different directories do not serialize with each
	// other.
	fs2 := newFS()
	d1 := fs2.Open(0, 0, "/p/scratch/user/d1/f", true)
	d2 := fs2.Open(1, 0, "/p/scratch/user/d2/f", true)
	if d2 > d1*2 {
		t.Errorf("cross-directory create serialized: %v then %v", d1, d2)
	}
}

func TestWriteTokenMechanism(t *testing.T) {
	fs := newFS()
	path := "/p/scratch/user/ssf/test"
	const mb = 1 << 20

	// Sole writer: first write gets a free to-EOF grant; sequential
	// writes stay at stream bandwidth.
	d0 := fs.Write(0, 0, path, 0, mb)
	if fs.Revocations != 0 {
		t.Fatalf("first write revoked: %d", fs.Revocations)
	}
	streamMax := 2 * time.Duration(float64(mb)/fs.p.WriteBW*float64(time.Second))
	if d0 > streamMax {
		t.Errorf("uncontended write = %v, want ≤ %v", d0, streamMax)
	}
	d1 := fs.Write(0, 0, path, mb, mb)
	if d1 > streamMax || fs.Revocations != 0 {
		t.Errorf("sequential write by owner = %v (revocations %d)", d1, fs.Revocations)
	}

	// Another rank writing above revokes (the first grant extends to
	// EOF).
	d2 := fs.Write(1, 0, path, 16*mb, mb)
	if fs.Revocations != 1 {
		t.Fatalf("revocations = %d, want 1", fs.Revocations)
	}
	if d2 < fs.p.WriteTokenSvc/2 {
		t.Errorf("revoking write = %v, want ≥ ~%v", d2, fs.p.WriteTokenSvc)
	}

	// Rank 0 still owns its original range below rank 1's grant.
	d3 := fs.Write(0, 0, path, 2*mb, mb)
	if fs.Revocations != 1 {
		t.Errorf("write into own retained range revoked (revocations %d)", fs.Revocations)
	}
	if d3 > streamMax {
		t.Errorf("own-range write slow: %v", d3)
	}

	// Rank 0 writing into rank 1's granted region revokes again.
	fs.Write(0, 0, path, 17*mb, mb)
	if fs.Revocations != 2 {
		t.Errorf("revocations = %d, want 2", fs.Revocations)
	}
}

func TestTokenManagerQueues(t *testing.T) {
	fs := newFS()
	path := "/p/scratch/user/ssf/test"
	const mb = 1 << 20
	fs.Write(0, 0, path, 0, mb)
	// 8 ranks revoke at the same instant: queue positions show in the
	// durations.
	var durs []time.Duration
	for rank := 1; rank <= 8; rank++ {
		durs = append(durs, fs.Write(rank, 0, path, int64(rank)*16*mb, mb))
	}
	for i := 1; i < len(durs); i++ {
		if durs[i] <= durs[i-1] {
			t.Errorf("queued revocation %d (%v) not slower than %d (%v)", i, durs[i], i-1, durs[i-1])
		}
	}
}

func TestFilePerProcessNoRevocations(t *testing.T) {
	fs := newFS()
	const mb = 1 << 20
	for rank := 0; rank < 16; rank++ {
		path := fmt.Sprintf("/p/scratch/user/fpp/test.%08d", rank)
		for seg := 0; seg < 3; seg++ {
			for tr := 0; tr < 16; tr++ {
				off := int64(seg*16+tr) * mb
				fs.Write(rank, 0, path, off, mb)
			}
		}
	}
	if fs.Revocations != 0 {
		t.Errorf("file-per-process writes caused %d revocations", fs.Revocations)
	}
}

func TestReadSwitch(t *testing.T) {
	fs := newFS()
	path := "/p/scratch/user/ssf/test"
	const mb = 1 << 20
	fs.Write(0, 0, path, 0, mb)
	fs.Write(1, 0, path, 16*mb, mb)

	// First read pays the shared-read switch.
	d := fs.Read(2, 0, path, 0, mb)
	if fs.ReadSwitches != 1 {
		t.Fatalf("read switches = %d", fs.ReadSwitches)
	}
	if d < fs.p.ReadSwitchSvc/2 {
		t.Errorf("switching read = %v", d)
	}
	// Subsequent reads stream.
	streamMax := 2 * time.Duration(float64(mb)/fs.p.ReadBW*float64(time.Second))
	for rank := 0; rank < 8; rank++ {
		if d := fs.Read(rank, 0, path, int64(rank)*mb, mb); d > streamMax {
			t.Errorf("post-switch read = %v, want ≤ %v", d, streamMax)
		}
	}
	if fs.ReadSwitches != 1 {
		t.Errorf("read switches = %d after streaming reads", fs.ReadSwitches)
	}
	// Writing again drops shared-read mode.
	fs.Write(0, 0, path, 0, mb)
	fs.Read(1, 0, path, 0, mb)
	if fs.ReadSwitches != 2 {
		t.Errorf("write-after-read did not force a new switch: %d", fs.ReadSwitches)
	}
}

func TestNodeLocalBypassesTokens(t *testing.T) {
	fs := newFS()
	const kb66 = 66_000
	for rank := 0; rank < 8; rank++ {
		d := fs.Write(rank, 0, "/dev/shm/psm2_shm.0", 0, kb66)
		if d > time.Millisecond {
			t.Errorf("node-local write = %v", d)
		}
	}
	if fs.Revocations != 0 || fs.SharedOpens != 0 {
		t.Errorf("node-local I/O hit the token path")
	}
	if d := fs.Open(0, 0, "/tmp/x", true); d > time.Millisecond {
		t.Errorf("node-local open = %v", d)
	}
}

func TestSmallOps(t *testing.T) {
	fs := newFS()
	if d := fs.Seek(); d <= 0 || d > 100*time.Microsecond {
		t.Errorf("lseek = %v", d)
	}
	if d := fs.Close(); d <= 0 || d > 100*time.Microsecond {
		t.Errorf("close = %v", d)
	}
	if d := fs.Fsync("/p/scratch/user/ssf/test"); d <= 0 || d > 100*time.Millisecond {
		t.Errorf("fsync = %v", d)
	}
}

func TestAblationSwitches(t *testing.T) {
	p := DefaultParams()
	p.DisableWriteTokens = true
	p.DisableSharedOpen = true
	fs := New(p, 1)
	path := "/p/scratch/user/ssf/test"
	const mb = 1 << 20
	fs.Open(0, 0, path, true)
	for rank := 1; rank < 8; rank++ {
		if d := fs.Open(rank, 0, path, true); d > time.Millisecond {
			t.Errorf("ablated shared open = %v", d)
		}
	}
	for rank := 0; rank < 8; rank++ {
		if d := fs.Write(rank, 0, path, int64(rank)*16*mb, mb); d > time.Millisecond {
			t.Errorf("ablated interleaved write = %v", d)
		}
	}
	if fs.Revocations != 0 || fs.SharedOpens != 0 {
		t.Errorf("ablation did not disable mechanisms: rev=%d shared=%d", fs.Revocations, fs.SharedOpens)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []time.Duration {
		fs := New(DefaultParams(), 42)
		var out []time.Duration
		path := "/p/scratch/user/ssf/test"
		fs.Open(0, 0, path, true)
		for rank := 0; rank < 10; rank++ {
			out = append(out, fs.Write(rank, 0, path, int64(rank)*1<<24, 1<<20))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("durations diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestReadOwnFileNoSwitch(t *testing.T) {
	fs := newFS()
	path := "/p/scratch/user/own/ckpt"
	const mb = 1 << 20
	fs.Open(0, 0, path, true)
	fs.Write(0, 0, path, 0, mb)
	// The writer reading back its own file holds all tokens: no switch.
	d := fs.Read(0, 0, path, 0, mb)
	if fs.ReadSwitches != 0 {
		t.Errorf("owner read-back switched: %d", fs.ReadSwitches)
	}
	streamMax := 2 * time.Duration(float64(mb)/fs.p.ReadBW*float64(time.Second))
	if d > streamMax {
		t.Errorf("owner read-back slow: %v", d)
	}
	// A different rank reading does switch.
	fs.Read(1, 0, path, 0, mb)
	if fs.ReadSwitches != 1 {
		t.Errorf("foreign read did not switch: %d", fs.ReadSwitches)
	}
}
