// Command stserve is the live ingestion daemon: it manages named
// analysis sessions, each tailing a directory of growing strace files
// through the fault-tolerant follower into a bounded-backpressure queue
// and a checkpointed fold, and serves per-session artifacts over HTTP.
//
//	stserve -state /var/lib/stserve
//	stserve -state ./state -addr :7171 -every 128 -policy shed-oldest
//
// HTTP surface (all session routes take the session name in the path):
//
//	GET    /healthz                       liveness
//	GET    /sessions                      list sessions
//	POST   /sessions/{name}               create (JSON body: trace_dir, policy, budget, every, ...)
//	GET    /sessions/{name}/info          counters, state, fault log
//	GET    /sessions/{name}/dfg           DFG render from the latest durable state
//	GET    /sessions/{name}/stats         per-activity statistics table
//	GET    /sessions/{name}/variants      activity-log variants
//	GET    /sessions/{name}/behavior      per-case behavior profiles
//	POST   /sessions/{name}/ingest        one case via request body (?cid=&host=&rid=)
//	POST   /sessions/{name}/drain         flush, finalize, persist (blocking)
//	DELETE /sessions/{name}               abort and deregister (state dir kept)
//
// Artifacts are rendered from the session's durable state in memory,
// once per checkpoint generation. Each response carries an ETag naming
// that generation; a request whose If-None-Match matches it gets 304.
//
// On startup the daemon recovers every session persisted under -state:
// each resumes from its checkpoint, re-ingesting only what was not yet
// folded, so a crash or restart never changes the final artifacts.
//
// On SIGTERM/SIGINT the daemon stops accepting requests, drains every
// session (bounded by -drain-timeout), and exits 0 once all final
// snapshots are durable. A second signal aborts immediately.
//
// Exit status: 0 on success, 2 for command-line (usage) errors, 1 for
// runtime failures.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"stinspector/internal/cliutil"
	"stinspector/internal/serve"
	"stinspector/internal/source"
)

func main() {
	os.Exit(cliutil.Report(os.Stderr, "stserve", run(os.Args[1:], nil)))
}

// run starts the daemon. If ready is non-nil it receives the bound
// address once the listener is up (the test hook).
func run(args []string, ready chan<- string) error {
	fs := flag.NewFlagSet("stserve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7171", "listen address")
	state := fs.String("state", "", "state directory: one subdirectory per session (required)")
	every := fs.Int("every", 0, "default checkpoint epoch size in cases for new sessions (0 = 64)")
	budget := fs.Int("budget", 0, "default in-flight case budget for new sessions (0 = library default)")
	policy := fs.String("policy", "", "default backpressure policy for new sessions: block or shed-oldest")
	shards := fs.Int("shards", 0, "default fold shards for new sessions (0 = GOMAXPROCS)")
	reqTimeout := fs.Duration("request-timeout", 30*time.Second, "per-request timeout for query endpoints")
	drainTimeout := fs.Duration("drain-timeout", 5*time.Minute, "bound on graceful drain at shutdown and on drain requests")
	watchdog := fs.Duration("watchdog", time.Minute, "per-session no-progress window before a watchdog fault is logged (negative disables)")
	if err := fs.Parse(args); err != nil {
		return cliutil.Usage(err)
	}
	if fs.NArg() > 0 {
		return cliutil.Usagef("unexpected operand %q (stserve takes flags only)", fs.Arg(0))
	}
	if *state == "" {
		return cliutil.Usagef("-state is required")
	}
	if *every < 0 || *budget < 0 || *shards < 0 {
		return cliutil.Usagef("-every, -budget and -shards must not be negative")
	}
	if _, err := source.ParsePolicy(*policy); err != nil {
		return cliutil.Usage(err)
	}
	if *reqTimeout <= 0 || *drainTimeout <= 0 {
		return cliutil.Usagef("-request-timeout and -drain-timeout must be positive")
	}

	srv, err := serve.NewServer(serve.Config{
		StateDir:       *state,
		RequestTimeout: *reqTimeout,
		DrainTimeout:   *drainTimeout,
		Watchdog:       *watchdog,
	})
	if err != nil {
		return err
	}
	srv.SessionDefaults(serve.SessionConfig{
		Every:  *every,
		Budget: *budget,
		Policy: *policy,
		Shards: *shards,
	})
	recovered, err := srv.Recover()
	if err != nil {
		return fmt.Errorf("recover sessions: %w", err)
	}
	for _, name := range recovered {
		fmt.Fprintf(os.Stderr, "stserve: recovered session %s\n", name)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			errc <- err
			return
		}
		errc <- nil
	}()
	fmt.Fprintf(os.Stderr, "stserve: listening on %s (state: %s)\n", ln.Addr(), *state)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		srv.AbortAll()
		return err
	case <-ctx.Done():
	}

	// Graceful shutdown: refuse new requests, drain every session to a
	// durable final snapshot, then exit 0. A second signal aborts.
	stop()
	fmt.Fprintln(os.Stderr, "stserve: draining sessions")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go httpSrv.Shutdown(shutCtx)

	drained := make(chan error, 1)
	go func() { drained <- srv.DrainAll() }()
	again, stopAgain := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stopAgain()
	select {
	case err := <-drained:
		if err != nil {
			return fmt.Errorf("drain: %w", err)
		}
	case <-again.Done():
		fmt.Fprintln(os.Stderr, "stserve: second signal, aborting")
		srv.AbortAll()
		return fmt.Errorf("aborted before drain completed")
	case <-shutCtx.Done():
		srv.AbortAll()
		return fmt.Errorf("drain timed out after %s", *drainTimeout)
	}
	fmt.Fprintln(os.Stderr, "stserve: all sessions drained")
	return nil
}
