// dlserve runs the simulator as a service: an HTTP/JSON API over the
// canonical job spec (internal/spec), with a bounded job queue, a
// worker pool, a content-addressed result cache, an optional disk-spill
// result store, and /healthz + /metrics endpoints. See internal/serve
// for the API.
//
// Examples:
//
//	dlserve -addr :8077
//	dlserve -addr 127.0.0.1:0 -workers 4 -queue 32
//	dlserve -addr :8077 -store /var/lib/dlserve/results
//
//	curl -s -X POST localhost:8077/v1/jobs \
//	     -d '{"kind":"sim","workload":"p2p","dimms":4,"channels":2}'
//
// A cluster is several plain dlserve nodes, each with its own -store;
// the nodes do not know about each other. Placement, requeue on node
// death and hedged reads live in the client (internal/serve/cluster's
// Dispatcher, which dlsmoke -cluster N drives).
//
// On SIGTERM/SIGINT the server drains: submissions are rejected with
// 503 while queued and running jobs finish and their results stay
// retrievable (use ?wait=1 on the result endpoint), then the listener
// shuts down, a trace directory dlserve created itself is removed, and
// the process exits 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/store"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8077", "listen address (host:port; port 0 picks a free port)")
		workers    = flag.Int("workers", 2, "job worker-pool width")
		queue      = flag.Int("queue", 16, "pending-job queue depth (full queue rejects with 429)")
		cache      = flag.Int("cache", 64, "result cache bound (entries)")
		expJobs    = flag.Int("jobs", 0, "per-experiment grid pool width (0 = GOMAXPROCS); output is identical for every value")
		jobTimeout = flag.Duration("jobtimeout", 0, "per-job wall-clock bound (0 = none)")
		drainGrace = flag.Duration("drain", 2*time.Minute, "max time to wait for in-flight jobs on shutdown before canceling them")
		storeDir   = flag.String("store", "", "disk-spill result store directory (content-addressed, survives restarts)")
		storeMax   = flag.Int("storemax", 4096, "disk store bound (entries, evicted oldest-first)")
		tracesDir  = flag.String("traces", "", "uploaded-trace blob store directory (default: <store>/traces when -store is set, else a temp dir)")
	)
	flag.Parse()

	logger := log.New(os.Stderr, "", log.LstdFlags)

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, *storeMax)
		if err != nil {
			logger.Fatalf("dlserve: store: %v", err)
		}
		logger.Printf("dlserve: disk store %s (%d entries)", st.Dir(), st.Len())
	}

	// Traces always get a blob store: next to the result store when one is
	// configured, otherwise in a throwaway temp dir (uploads then live for
	// the process lifetime only, which still serves the common
	// upload-then-submit flow, and the dir is removed after a drain).
	tdir, tmpTraces := *tracesDir, ""
	if tdir == "" {
		if *storeDir != "" {
			tdir = *storeDir + "/traces"
		} else {
			var err error
			tdir, err = os.MkdirTemp("", "dlserve-traces-")
			if err != nil {
				logger.Fatalf("dlserve: traces: %v", err)
			}
			tmpTraces = tdir
		}
	}
	traces, err := store.OpenBlobs(tdir)
	if err != nil {
		logger.Fatalf("dlserve: traces: %v", err)
	}
	logger.Printf("dlserve: trace store %s (%d traces)", traces.Dir(), traces.Len())

	srv := serve.NewServer(serve.Config{
		Workers: *workers, QueueDepth: *queue, CacheEntries: *cache,
		ExpJobs: *expJobs, JobTimeout: *jobTimeout,
		Store: st, Traces: traces,
		Logf: logger.Printf,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Fatalf("dlserve: listen: %v", err)
	}

	hs := &http.Server{
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The listening line goes to stdout so scripts (ci.sh's smoke) can
	// discover an ephemeral port.
	fmt.Printf("dlserve: listening on http://%s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigCh:
		logger.Printf("dlserve: %s: draining (in-flight jobs finish, submissions get 503)", sig)
		// Drain jobs first, while the listener still serves status and
		// result reads — clients blocked on ?wait=1 get their bodies.
		dctx, dcancel := context.WithTimeout(context.Background(), *drainGrace)
		if err := srv.Drain(dctx); err != nil {
			logger.Printf("dlserve: drain: %v (in-flight jobs canceled)", err)
		}
		dcancel()
		sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := hs.Shutdown(sctx); err != nil {
			logger.Printf("dlserve: shutdown: %v", err)
		}
		scancel()
		if tmpTraces != "" {
			if err := os.RemoveAll(tmpTraces); err != nil {
				logger.Printf("dlserve: remove %s: %v", tmpTraces, err)
			}
		}
		logger.Printf("dlserve: drained, exiting")
	case err := <-errCh:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Fatalf("dlserve: serve: %v", err)
		}
	}
}
