// Command wormholed is the simulation-as-a-service daemon: an HTTP/JSON
// front end over the deterministic simulation stack. Tenants POST
// open-loop sweep or experiment jobs, the daemon fans them over a
// bounded worker pool, streams per-window latency/throughput series
// while they run, and serves the rendered results — byte-identical to
// what the wormbench CLI prints for the same configuration.
//
// Usage:
//
//	wormholed -state DIR [-http :8080] [-workers N]
//	          [-checkpoint-interval STEPS] [-addr-file FILE]
//	          [-max-queued N]
//
// Every job persists under -state and every live simulation checkpoints
// itself every -checkpoint-interval flit steps (vcsim's versioned
// binary snapshot format via traffic.Runner.Snapshot), so the daemon
// survives graceful restarts, kill -9 and machine crashes: on SIGTERM
// running jobs pause at their next step, checkpoint, and re-queue; on
// startup the state directory is scanned and interrupted jobs resume
// from their checkpoints. Resumed runs are byte-identical to
// uninterrupted ones — the CI e2e test kills the daemon mid-run and
// diffs, and TestCrashPoints restarts it after each file operation of a
// run, under process death and under machine death.
//
// -addr-file writes the resolved listen address (useful with -http :0)
// once the socket is bound, which is how tests rendezvous with the
// daemon. See README.md "Simulation as a service" for the API.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"wormhole/internal/snap"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		httpAddr  = flag.String("http", ":8080", "listen address (use :0 with -addr-file for an ephemeral port)")
		stateDir  = flag.String("state", "", "state directory for job specs, results, and checkpoints (required)")
		workers   = flag.Int("workers", 2, "concurrent job workers")
		ckptEvery = flag.Int("checkpoint-interval", 1_000_000, "checkpoint live runs every N flit steps (0 = only on graceful shutdown); a checkpoint encodes at about 2 GB/s and restores at about 1 GB/s (0.5 and 1 ms per MB), but its size is still ~81 bytes per message injected so far, so on long runs very small intervals spend their time writing ever larger files")
		addrFile  = flag.String("addr-file", "", "write the resolved listen address to this file once bound")
		maxQueued = flag.Int("max-queued", 1024, "admission cap: submissions beyond this many queued jobs get 429 + Retry-After")
	)
	flag.Parse()
	if *stateDir == "" {
		fmt.Fprintln(os.Stderr, "wormholed: -state is required")
		return 2
	}

	m, err := newManager(*stateDir, *workers, *ckptEvery, *maxQueued, snap.OS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wormholed:", err)
		return 1
	}

	ln, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wormholed:", err)
		return 1
	}
	if *addrFile != "" {
		if err := snap.WriteFile(snap.OS, *addrFile, []byte(ln.Addr().String())); err != nil {
			fmt.Fprintln(os.Stderr, "wormholed:", err)
			return 1
		}
	}
	// All handlers answer from memory or small files, so tight timeouts
	// cost nothing and a stalled client can't pin a connection.
	srv := &http.Server{
		Handler:           newAPI(m),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "wormholed: serving on http://%s (state %s)\n", ln.Addr(), *stateDir)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "wormholed: %v: checkpointing and shutting down\n", s)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "wormholed:", err)
		m.Shutdown()
		return 1
	}

	// Stop accepting work, then drain: running jobs pause at their next
	// step poll, checkpoint, and re-queue for the next start.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx) //nolint:errcheck -- in-flight requests get a bounded grace period
	m.Shutdown()
	return 0
}
