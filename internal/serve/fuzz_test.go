package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// FuzzServeHTTP drives the stserve HTTP surface with arbitrary session
// names, create bodies, artifact kinds and ingest queries and bodies.
// No request may panic or be answered with a 5xx, and a rejected
// request (4xx) must leave the state directory's files unchanged. Any
// trace_dir a create body names is pointed at an empty temp dir, so an
// accepted session follows nothing but what the fuzzer ingests.
func FuzzServeHTTP(f *testing.F) {
	const line = "1  10:00:00.000001 read(3</data/x>, \"\", 8) = 8 <0.000010>\n"
	f.Add("s1", `{"trace_dir": "x", "every": 1, "poll_ms": 2}`, "dfg", "cid=a&host=h&rid=1", line)
	f.Add("s1", `{"trace_dir": "x", "map_depth": 3}`, "stats", "cid=a&host=h&rid=x", line)
	f.Add("job-1.prod", `{"trace_dir": "x", "policy": "shed-oldest", "budget": 1}`, "behavior", "cid=a&host=h&rid=2", "garbage\n"+line)
	f.Add("a/b", `{"trace_dir": "x"}`, "variants", "", "")
	f.Add("..", `{"name": "other", "trace_dir": "x"}`, "info", "cid=&host=h&rid=1", line)
	f.Add("s2", `{"trace_dir": "x", "budget": -1}`, "bogus", "rid=1", line)
	f.Add("s3", `{"trace_dir": "x", "policy": "nope"}`, "", "cid=a&host=h&rid=-1", "")
	f.Add("s4", `not json`, "dfg", "%zz", line)
	f.Add("s5", `{"TRACE_DIR": "x", "every": 2} trailing`, "dfg", "cid=a&host=h&rid=1", line)
	f.Add("", `null`, "dfg", "cid=a&host=h&rid=1", line)

	f.Fuzz(func(t *testing.T, name, body, kind, query, ingest string) {
		stateDir := t.TempDir()
		srv, err := NewServer(Config{StateDir: stateDir, Watchdog: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.AbortAll()
		h := srv.Handler()
		body = withTraceDir(body, t.TempDir())

		base := "http://stserve/sessions/" + url.PathEscape(name)
		for _, rq := range []struct {
			method, target, body string
		}{
			{"POST", base, body},
			{"GET", base + "/info", ""},
			{"GET", base + "/" + url.PathEscape(kind), ""},
			{"GET", "http://stserve/sessions", ""},
			{"POST", base, body},
			// An accepted ingest folds in the background (and may
			// checkpoint), so only the DELETE, which waits for the
			// fold, follows it.
			{"POST", base + "/ingest?" + query, ingest},
			{"DELETE", base, ""},
		} {
			req, err := http.NewRequest(rq.method, rq.target, strings.NewReader(rq.body))
			if err != nil {
				continue // not a request an HTTP client can send
			}
			before := stateListing(t, stateDir)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code >= 500 {
				t.Fatalf("%s %s: %d %s", rq.method, rq.target, rec.Code, rec.Body)
			}
			if rec.Code >= 400 {
				if after := stateListing(t, stateDir); after != before {
					t.Fatalf("rejected %s %s (%d) changed the state directory:\nbefore:\n%safter:\n%s",
						rq.method, rq.target, rec.Code, before, after)
				}
			}
		}
	})
}

// withTraceDir rewrites every key of a JSON object body that the
// session config decoder would read as trace_dir (encoding/json matches
// keys case-insensitively) to dir. A body whose first JSON value is not
// an object is returned unchanged: the server rejects it.
func withTraceDir(body, dir string) string {
	var m map[string]json.RawMessage
	if err := json.NewDecoder(strings.NewReader(body)).Decode(&m); err != nil || m == nil {
		return body
	}
	named := false
	for k := range m {
		if strings.EqualFold(k, "trace_dir") {
			delete(m, k)
			named = true
		}
	}
	if named {
		m["trace_dir"], _ = json.Marshal(dir)
	}
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(m); err != nil {
		return "{}"
	}
	return b.String()
}
