package jobqueue

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// testDaemon is a restartable in-process campaignd: queue + HTTP server +
// sweeper on a real TCP listener whose address survives a kill/relaunch
// cycle, so clients and workers keep pointing at the same base URL across
// daemon incarnations (httptest.NewServer would move ports).
type testDaemon struct {
	t    *testing.T
	q    *Queue
	hs   *http.Server
	addr string
	stop chan struct{}
	done chan struct{}
}

// launchDaemon starts a daemon on addr ("127.0.0.1:0" for the first
// incarnation; pass the previous addr to restart on the same port).
func launchDaemon(t *testing.T, opts Options, addr string) *testDaemon {
	t.Helper()
	q, err := NewQueue(opts)
	if err != nil {
		t.Fatalf("launch daemon: %v", err)
	}
	var ln net.Listener
	for i := 0; ; i++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if i >= 100 {
			t.Fatalf("rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	srv := NewServer(q)
	d := &testDaemon{
		t:    t,
		q:    q,
		hs:   &http.Server{Handler: srv},
		addr: ln.Addr().String(),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go func() {
		defer close(d.done)
		srv.RunSweeper(20*time.Millisecond, d.stop)
	}()
	go d.hs.Serve(ln) //nolint:errcheck // returns ErrServerClosed on kill
	return d
}

func (d *testDaemon) url() string { return "http://" + d.addr }

// kill simulates SIGKILL: connections are cut and the queue is abandoned
// without Close — nothing survives beyond the fsync'd job log, records and
// manifests. The brief settle keeps straggler handler goroutines of the
// dead incarnation from racing the next incarnation's files.
func (d *testDaemon) kill() {
	close(d.stop)
	<-d.done
	d.hs.Close() //nolint:errcheck
	time.Sleep(50 * time.Millisecond)
}

// shutdown is the graceful path used by test cleanup.
func (d *testDaemon) shutdown() {
	close(d.stop)
	<-d.done
	d.hs.Close() //nolint:errcheck
	d.q.Close()  //nolint:errcheck
}

// logCollector is a goroutine-safe Options.Log sink.
type logCollector struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCollector) logf(format string, args ...any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
}

// TestE2EDaemonRestart is the tentpole's end-to-end proof: a campaign is
// mid-flight across two workers when the daemon is killed (SIGKILL
// semantics — no drain) and restarted over the same state directory and
// address. The workers are NEVER restarted: they ride out the outage on
// client retries, re-register, keep their in-flight points, and the
// merged record stream is still byte-identical to an uninterrupted
// single-process run.
func TestE2EDaemonRestart(t *testing.T) {
	const n = 12
	opts := chaosOptions(t, n)
	opts.StateDir = t.TempDir()
	lc := &logCollector{}
	opts.Log = lc.logf

	d := launchDaemon(t, opts, "127.0.0.1:0")
	c := NewClient(d.url())
	c.Retry.Backoff = BackoffPolicy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}
	spec := JobSpec{ID: "restart", Experiments: []string{"all"}, Seed: 999}
	if _, err := c.Submit(t.Context(), spec); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	for _, id := range []string{"wa", "wb"} {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			RunWorker(ctx, c, synthRunner, WorkerOptions{ //nolint:errcheck
				ID: id, Poll: 5 * time.Millisecond,
				ChaosLatency: 25 * time.Millisecond, // keep points in flight across the kill
				Backoff:      BackoffPolicy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
			})
		}(id)
	}

	// Let the campaign get properly underway, then pull the rug.
	deadline := time.Now().Add(15 * time.Second)
	for {
		st, err := c.Status(t.Context(), "restart")
		if err == nil && st.Done >= 3 && st.Done <= n-3 {
			break
		}
		if err == nil && st.Done > n-3 {
			t.Fatalf("campaign drained too fast to test a mid-flight kill (done=%d)", st.Done)
		}
		if time.Now().After(deadline) {
			t.Fatal("campaign never got underway")
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.kill()

	d2 := launchDaemon(t, opts, d.addr)
	defer d2.shutdown()

	st := waitComplete(t, c, "restart", 30*time.Second)
	cancel()
	wg.Wait()
	if st.Done != n || st.Failed != 0 {
		t.Fatalf("done=%d failed=%d, want %d/0", st.Done, st.Failed, n)
	}
	path, _ := d2.q.RecordsPath("restart")
	assertSameRecords(t, recordLines(t, path), expectedLines(t, spec, n, 5))

	lc.mu.Lock()
	restored := false
	for _, ln := range lc.lines {
		if strings.Contains(ln, "restored") {
			restored = true
		}
	}
	lc.mu.Unlock()
	if !restored {
		t.Fatal("second incarnation never logged a state restore — did it replay the WAL at all?")
	}
}

// TestE2EDaemonAndWorkerSimultaneousCrash kills BOTH halves: a worker
// dies holding an unreported lease, the daemon is killed right after, and
// the restarted daemon rebuilds the job from its records — the orphaned
// lease is gone and its point pending again — and hands every open point
// to a fresh worker, records still byte-identical.
func TestE2EDaemonAndWorkerSimultaneousCrash(t *testing.T) {
	const n = 10
	opts := chaosOptions(t, n)
	opts.StateDir = t.TempDir()

	d := launchDaemon(t, opts, "127.0.0.1:0")
	c := NewClient(d.url())
	c.Retry.Backoff = BackoffPolicy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}
	spec := JobSpec{ID: "double", Experiments: []string{"all"}, Seed: 4242}
	if _, err := c.Submit(t.Context(), spec); err != nil {
		t.Fatal(err)
	}

	// The victim completes two points, then dies holding its third lease.
	err := RunWorker(t.Context(), c, synthRunner, WorkerOptions{
		ID: "victim", Poll: 5 * time.Millisecond, ChaosKillAtLease: 3,
	})
	if err != ErrChaosKill {
		t.Fatalf("victim exited %v, want ErrChaosKill", err)
	}
	d.kill() // and the daemon goes down with it

	d2 := launchDaemon(t, opts, d.addr)
	defer d2.shutdown()
	if st, _ := d2.q.Status("double"); st.Done != 2 || st.Leased != 0 || st.Pending != n-2 {
		t.Fatalf("right after the restart: %+v, want 2 done, 0 leased, %d pending", st, n-2)
	}

	// A fresh worker against the restarted daemon drains everything,
	// including the point the victim took to its grave.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		RunWorker(ctx, c, synthRunner, WorkerOptions{ //nolint:errcheck
			ID: "survivor", Poll: 5 * time.Millisecond,
			Backoff: BackoffPolicy{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
		})
	}()

	st := waitComplete(t, c, "double", 30*time.Second)
	cancel()
	wg.Wait()
	if st.Done != n || st.Failed != 0 {
		t.Fatalf("done=%d failed=%d, want %d/0", st.Done, st.Failed, n)
	}
	path, _ := d2.q.RecordsPath("double")
	assertSameRecords(t, recordLines(t, path), expectedLines(t, spec, n, 5))
}
