package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"
)

// newlineFree yields n bytes of 'x' without holding them in memory.
type newlineFree struct{ n int64 }

var xblock = []byte(strings.Repeat("x", 32<<10))

func (r *newlineFree) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.n {
		p = p[:r.n]
	}
	n := 0
	for n < len(p) {
		n += copy(p[n:], xblock)
	}
	r.n -= int64(n)
	return n, nil
}

// TestHTTPIngestOverlongLine: a 64 MiB request body with no newline —
// one line 16x over the 4 MiB cap — is answered promptly with the line
// counted as dropped, without the server buffering it whole.
func TestHTTPIngestOverlongLine(t *testing.T) {
	srv, err := NewServer(Config{StateDir: t.TempDir(), RequestTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.AbortAll()
	if _, err := srv.Create(fastSession("big", t.TempDir())); err != nil {
		t.Fatal(err)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	resp, err := http.Post(ts.URL+"/sessions/big/ingest?cid=big&host=h&rid=1", "text/plain", &newlineFree{n: 64 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]int
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	runtime.ReadMemStats(&m1)
	alloc := m1.TotalAlloc - m0.TotalAlloc
	t.Logf("64 MiB newline-free ingest: %d %v in %v, %.1f MiB allocated", resp.StatusCode, got, wall.Round(time.Millisecond), float64(alloc)/(1<<20))

	if resp.StatusCode != http.StatusAccepted || got["events"] != 0 || got["dropped_lines"] != 1 {
		t.Errorf("response %d %v, want 202 with 0 events and 1 dropped line", resp.StatusCode, got)
	}
	if alloc > 16<<20 {
		t.Errorf("ingest allocated %d bytes, want <= 16 MiB", alloc)
	}
	if wall > 10*time.Second {
		t.Errorf("ingest took %v", wall)
	}
}
