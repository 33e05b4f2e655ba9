package behavior

import "testing"

// TestClassify pins the call taxonomy: every behavior call maps to its
// class, and the non-behavior I/O bookkeeping calls stay outside.
func TestClassify(t *testing.T) {
	for call, want := range map[string]opClass{
		"openat": opOpened, "open": opOpened, "openat2": opOpened,
		"read": opRead, "pread64": opRead, "preadv2": opRead,
		"write": opWritten, "truncate": opWritten, "mkdirat": opWritten,
		"unlink": opDeleted, "unlinkat": opDeleted, "rmdir": opDeleted,
		"rename": opRenamed, "renameat2": opRenamed,
		"execve": opSpawned, "execveat": opSpawned,
		"connect": opConnected,
	} {
		if got, ok := classify(call); !ok || got != want {
			t.Errorf("Classify(%q) = %v, %v; want %v, true", call, got, ok, want)
		}
	}
	for _, call := range []string{"close", "lseek", "fsync", "brk", "mmap", ""} {
		if _, ok := classify(call); ok {
			t.Errorf("Classify(%q) accepted a non-behavior call", call)
		}
	}
}
