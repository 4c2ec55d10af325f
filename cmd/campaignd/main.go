// Command campaignd is the campaign daemon: simulation-as-a-service over
// the experiment registry. It accepts campaign specs over HTTP/JSON,
// expands them into grid points, and dispatches the points to registered
// campaignworker processes through a lease-based work queue that survives
// worker death: missed heartbeats and expired leases requeue points,
// reported failures retry with exponential backoff up to a bounded budget,
// and exhausted points land in a failure manifest so a campaign completes
// with explicit holes instead of hanging.
//
//	campaignd -data /var/lib/campaigns -addr 127.0.0.1:8655
//
// Then, from anywhere that reaches the daemon:
//
//	campaignctl -daemon http://127.0.0.1:8655 submit -experiments F1,F2 -seed 777
//	campaignworker -daemon http://127.0.0.1:8655   # as many as you like
//	campaignctl -daemon http://127.0.0.1:8655 wait job-001
//	campaignctl -daemon http://127.0.0.1:8655 records job-001 > records.jsonl
//
// Each job owns a checkpoint namespace <data>/<jobID>/ holding its
// append-only records.jsonl (the PR 4 sink format — `cmd/experiments
// -checkpoint <file> -resume` renders tables from it) and manifest.json.
// Because point seeds derive purely from (base seed, point key), a
// campaign executed across any fleet, with any amount of worker churn,
// yields records identical to one uninterrupted single-process run.
//
// The daemon itself survives death: every accepted spec is an fsync'd line
// of jobs.jsonl under -state (default: the -data directory), so a
// campaignd killed at any instant — SIGKILL included — and restarted over
// the same -state and -data directories rebuilds every campaign from its
// records and manifest. A restart keeps jobs, records and manifest holes;
// it resets leases (points in flight run again), attempt counts, backoff
// gates, the requeue, retry and duplicate counters, and the ETA. Workers
// reconnect unaided; completions that arrive from the outage window are
// accepted or dup-discarded.
//
// Shutdown semantics: on the first SIGTERM/SIGINT the daemon drains —
// it stops granting leases, finishes in-flight HTTP exchanges, and exits
// 0. A second signal hard-exits immediately (specs and records are
// fsync'd as they are acknowledged, so even that loses nothing).
//
// See README.md ("The campaign daemon") for the API and the fault model.
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

	"repro/internal/jobqueue"
	"repro/internal/jobqueue/exptrun"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		addr       = flag.String("addr", "127.0.0.1:8655", "listen address (use :0 for an ephemeral port)")
		addrFile   = flag.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
		dataDir    = flag.String("data", "campaignd-data", "root directory for per-job checkpoint namespaces")
		stateDir   = flag.String("state", "", "durable queue state directory: jobs.jsonl, the log of accepted job specs (default: the -data directory)")
		leaseTTL   = flag.Duration("lease", 30*time.Second, "lease time-to-live without a heartbeat")
		hbTimeout  = flag.Duration("heartbeat-timeout", 0, "declare a worker lost after this silence (default 3/4 of -lease)")
		maxTries   = flag.Int("max-attempts", 4, "grants per point before it lands in the failure manifest")
		backoff    = flag.Duration("backoff", 250*time.Millisecond, "base retry backoff after a reported point failure")
		backoffMax = flag.Duration("backoff-max", 30*time.Second, "retry backoff ceiling")
		sweepEvery = flag.Duration("sweep", time.Second, "lease-expiry sweep interval")
	)
	flag.Parse()
	if err := checkFlags(*leaseTTL, *hbTimeout, *maxTries, *backoff, *backoffMax, *sweepEvery); err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		return 1
	}
	if *stateDir == "" {
		*stateDir = *dataDir
	}

	q, err := jobqueue.NewQueue(jobqueue.Options{
		DataDir:          *dataDir,
		Expand:           exptrun.Expand,
		StateDir:         *stateDir,
		LeaseTTL:         *leaseTTL,
		HeartbeatTimeout: *hbTimeout,
		MaxAttempts:      *maxTries,
		BackoffBase:      *backoff,
		BackoffMax:       *backoffMax,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "campaignd: "+format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		return 1
	}

	srv := jobqueue.NewServer(q)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		return 1
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "campaignd:", err)
			return 1
		}
	}
	fmt.Fprintf(os.Stderr, "campaignd: listening on %s (data %s, state %s, lease %v, max attempts %d)\n",
		bound, *dataDir, *stateDir, *leaseTTL, *maxTries)

	stop := make(chan struct{})
	go srv.RunSweeper(*sweepEvery, stop)

	hs := &http.Server{Handler: srv}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "campaignd: %v — draining (no new leases; restart with the same -state and -data to resume)\n", s)
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		close(stop)
		q.Close()
		return 1
	}
	// Graceful drain: stop granting leases, let in-flight exchanges
	// finish, then exit 0. A second signal hard-exits — the fsync'd job
	// log and records make even that recoverable.
	q.Drain()
	close(stop)
	done := make(chan struct{})
	go func() {
		defer close(done)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx) //nolint:errcheck // best-effort drain
	}()
	select {
	case <-done:
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "campaignd: second %v — hard exit\n", s)
		return 130
	}
	if err := q.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "campaignd:", err)
		return 1
	}
	return 0
}

// checkFlags rejects the settings the queue would otherwise silently
// replace by its defaults, and a sweep interval the ticker cannot run.
// Zero keeps its documented default meaning.
func checkFlags(lease, hbTimeout time.Duration, maxTries int, backoff, backoffMax, sweep time.Duration) error {
	switch {
	case lease < 0:
		return fmt.Errorf("-lease %v: must not be negative", lease)
	case hbTimeout < 0:
		return fmt.Errorf("-heartbeat-timeout %v: must not be negative", hbTimeout)
	case maxTries < 0:
		return fmt.Errorf("-max-attempts %d: must not be negative", maxTries)
	case backoff < 0:
		return fmt.Errorf("-backoff %v: must not be negative", backoff)
	case backoffMax < 0:
		return fmt.Errorf("-backoff-max %v: must not be negative", backoffMax)
	case sweep <= 0:
		return fmt.Errorf("-sweep %v: need a positive interval", sweep)
	}
	return nil
}
