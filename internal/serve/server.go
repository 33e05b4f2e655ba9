package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"stinspector/internal/fsatomic"
	"stinspector/internal/trace"
)

// Config configures the serving daemon.
type Config struct {
	// StateDir holds one subdirectory per session (session.json +
	// checkpoint.sts). Required; created if missing.
	StateDir string
	// RequestTimeout bounds every query request; drain requests get
	// DrainTimeout instead. Default 30s.
	RequestTimeout time.Duration
	// DrainTimeout bounds a drain request (the fold must flush and
	// finalize within it). Default 5m.
	DrainTimeout time.Duration
	// Watchdog is the per-session no-progress window after which a
	// typed WatchdogError is recorded in the session's fault log.
	// Default 1m; negative disables.
	Watchdog time.Duration
}

func (c *Config) setDefaults() {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 5 * time.Minute
	}
	if c.Watchdog == 0 {
		c.Watchdog = time.Minute
	}
}

// Server is the session registry behind the stserve daemon.
type Server struct {
	cfg Config

	mu       sync.Mutex
	defaults SessionConfig
	sessions map[string]*Session
	closed   bool
}

// NewServer builds a server over cfg.StateDir (created if missing).
func NewServer(cfg Config) (*Server, error) {
	if cfg.StateDir == "" {
		return nil, fmt.Errorf("serve: state directory not set")
	}
	cfg.setDefaults()
	if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
		return nil, err
	}
	return &Server{cfg: cfg, sessions: make(map[string]*Session)}, nil
}

func (s *Server) sessionDir(name string) string {
	return filepath.Join(s.cfg.StateDir, name)
}

// SessionDefaults sets fallback knobs for session configs whose
// corresponding fields are unset at Create time. The filled-in values
// are what gets persisted, so a later restart under different daemon
// defaults rebuilds the session exactly as created.
func (s *Server) SessionDefaults(d SessionConfig) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.defaults = d
}

func (s *Server) applyDefaults(cfg SessionConfig) SessionConfig {
	s.mu.Lock()
	d := s.defaults
	s.mu.Unlock()
	if cfg.Policy == "" {
		cfg.Policy = d.Policy
	}
	if cfg.Budget == 0 {
		cfg.Budget = d.Budget
	}
	if cfg.Every == 0 {
		cfg.Every = d.Every
	}
	if cfg.Shards == 0 {
		cfg.Shards = d.Shards
	}
	return cfg
}

// Create persists and starts a new session. The configuration is
// written atomically to session.json before the pipeline starts, so a
// crash between the two leaves a recoverable (empty) session, never an
// unrecorded running one.
func (s *Server) Create(cfg SessionConfig) (*Session, error) {
	cfg = s.applyDefaults(cfg)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("serve: server closed")
	}
	if _, ok := s.sessions[cfg.Name]; ok {
		return nil, fmt.Errorf("serve: session %q already exists", cfg.Name)
	}
	dir := s.sessionDir(cfg.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	blob, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := fsatomic.WriteFileBytes(filepath.Join(dir, "session.json"), append(blob, '\n')); err != nil {
		return nil, err
	}
	sess, err := newSession(cfg, dir, s.cfg.Watchdog)
	if err != nil {
		return nil, err
	}
	s.sessions[cfg.Name] = sess
	return sess, nil
}

// Recover scans StateDir for persisted sessions and restarts each from
// its checkpoint. It returns the recovered names; per-session failures
// abort the recovery (a daemon must not silently run with a subset of
// its sessions).
func (s *Server) Recover() ([]string, error) {
	ents, err := os.ReadDir(s.cfg.StateDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, ent := range ents {
		if !ent.IsDir() {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(s.sessionDir(ent.Name()), "session.json"))
		if errors.Is(err, os.ErrNotExist) {
			continue // not a session directory
		}
		if err != nil {
			return names, err
		}
		var cfg SessionConfig
		if err := json.Unmarshal(blob, &cfg); err != nil {
			return names, fmt.Errorf("serve: %s/session.json: %w", ent.Name(), err)
		}
		if cfg.Name != ent.Name() {
			return names, fmt.Errorf("serve: session dir %q names itself %q", ent.Name(), cfg.Name)
		}
		s.mu.Lock()
		_, exists := s.sessions[cfg.Name]
		s.mu.Unlock()
		if exists {
			continue
		}
		sess, err := newSession(cfg, s.sessionDir(cfg.Name), s.cfg.Watchdog)
		if err != nil {
			return names, err
		}
		s.mu.Lock()
		s.sessions[cfg.Name] = sess
		s.mu.Unlock()
		names = append(names, cfg.Name)
	}
	sort.Strings(names)
	return names, nil
}

// Get returns a registered session.
func (s *Server) Get(name string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[name]
	return sess, ok
}

// Remove aborts a session and drops it from the registry. Its state
// directory stays on disk: removal is an operational stop, not a purge.
func (s *Server) Remove(name string) bool {
	s.mu.Lock()
	sess, ok := s.sessions[name]
	delete(s.sessions, name)
	s.mu.Unlock()
	if ok {
		sess.Abort()
	}
	return ok
}

// List snapshots every session's Info, sorted by name.
func (s *Server) List() []Info {
	s.mu.Lock()
	all := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	s.mu.Unlock()
	infos := make([]Info, len(all))
	for i, sess := range all {
		infos[i] = sess.Info()
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// DrainAll drains every session concurrently — the graceful-shutdown
// path — and returns the first error. New sessions are refused from the
// moment it starts.
func (s *Server) DrainAll() error {
	s.mu.Lock()
	s.closed = true
	all := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	s.mu.Unlock()

	errc := make(chan error, len(all))
	for _, sess := range all {
		go func(sess *Session) { errc <- sess.Drain() }(sess)
	}
	var first error
	for range all {
		if err := <-errc; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// AbortAll hard-stops every session (the non-graceful shutdown path).
func (s *Server) AbortAll() {
	s.mu.Lock()
	s.closed = true
	all := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		all = append(all, sess)
	}
	s.mu.Unlock()
	for _, sess := range all {
		sess.Abort()
	}
}

// Handler returns the HTTP surface. Query and mutation requests are
// bounded by RequestTimeout; drain requests by DrainTimeout.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("POST /sessions/{name}", s.handleCreate)
	mux.HandleFunc("GET /sessions/{name}/info", s.withSession(func(w http.ResponseWriter, r *http.Request, sess *Session) {
		writeJSON(w, http.StatusOK, sess.Info())
	}))
	mux.HandleFunc("GET /sessions/{name}/{artifact}", s.withSession(s.handleArtifact))
	mux.HandleFunc("POST /sessions/{name}/ingest", s.withSession(s.handleIngest))
	mux.HandleFunc("DELETE /sessions/{name}", func(w http.ResponseWriter, r *http.Request) {
		if !s.Remove(r.PathValue("name")) {
			http.Error(w, "no such session", http.StatusNotFound)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})

	// Drain can legitimately outlive the query timeout: route it around
	// the TimeoutHandler with its own, longer bound.
	drain := http.HandlerFunc(s.withSession(func(w http.ResponseWriter, r *http.Request, sess *Session) {
		if err := sess.Drain(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		writeJSON(w, http.StatusOK, sess.Info())
	}))
	outer := http.NewServeMux()
	outer.Handle("POST /sessions/{name}/drain", http.TimeoutHandler(drain, s.cfg.DrainTimeout, "drain timed out"))
	outer.Handle("/", http.TimeoutHandler(mux, s.cfg.RequestTimeout, "request timed out"))
	return outer
}

func (s *Server) withSession(h func(http.ResponseWriter, *http.Request, *Session)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		sess, ok := s.Get(r.PathValue("name"))
		if !ok {
			http.Error(w, "no such session", http.StatusNotFound)
			return
		}
		h(w, r, sess)
	}
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var cfg SessionConfig
	if err := json.NewDecoder(r.Body).Decode(&cfg); err != nil {
		http.Error(w, fmt.Sprintf("bad session config: %v", err), http.StatusBadRequest)
		return
	}
	name := r.PathValue("name")
	if cfg.Name == "" {
		cfg.Name = name
	}
	if cfg.Name != name {
		http.Error(w, fmt.Sprintf("body names session %q, path %q", cfg.Name, name), http.StatusBadRequest)
		return
	}
	sess, err := s.Create(cfg)
	if err != nil {
		status := http.StatusBadRequest
		if _, ok := s.Get(name); ok {
			status = http.StatusConflict
		}
		http.Error(w, err.Error(), status)
		return
	}
	writeJSON(w, http.StatusCreated, sess.Info())
}

// handleArtifact serves a query artifact with an ETag naming its
// durable generation, answering a matching If-None-Match with 304.
func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request, sess *Session) {
	body, gen, err := sess.artifact(r.PathValue("artifact"))
	switch {
	case errors.Is(err, ErrUnknownArtifact):
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	case errors.Is(err, os.ErrNotExist):
		http.Error(w, "no checkpoint yet", http.StatusNotFound)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	etag := `"` + strconv.Itoa(gen) + `"`
	h := w.Header()
	h.Set("ETag", etag)
	if etagMatch(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// etagMatch reports whether an If-None-Match header value lists etag,
// or is "*"; weak tags compare equal to strong ones, as RFC 9110
// requires for If-None-Match.
func etagMatch(header, etag string) bool {
	for _, t := range strings.Split(header, ",") {
		t = strings.TrimPrefix(strings.TrimSpace(t), "W/")
		if t == etag || t == "*" {
			return true
		}
	}
	return false
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request, sess *Session) {
	q := r.URL.Query()
	rid, err := strconv.Atoi(q.Get("rid"))
	if err != nil || q.Get("cid") == "" || q.Get("host") == "" {
		http.Error(w, "ingest needs cid, host and numeric rid query parameters", http.StatusBadRequest)
		return
	}
	id := trace.CaseID{CID: q.Get("cid"), Host: q.Get("host"), RID: rid}
	events, dropped, err := sess.Ingest(id, r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int{"events": events, "dropped_lines": dropped})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
