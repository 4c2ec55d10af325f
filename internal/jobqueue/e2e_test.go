package jobqueue

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
)

// synthRecord is the deterministic "simulation": samples are a pure
// function of (campaign, point key, seed), mirroring the seed-purity
// property the real experiment registry guarantees by running every point
// on the base seed.
// Any two executions of the same point — first attempt, retry, steal —
// therefore produce byte-identical records, which is exactly what the
// chaos assertions below rely on.
func synthRecord(pt PointRef, spec JobSpec, trials int) *campaign.Record {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%s/%d", pt.Campaign, pt.Key, spec.Seed)
	x := h.Sum64()
	samples := make([]campaign.NullFloat, trials)
	for i := range samples {
		x = x*6364136223846793005 + 1442695040888963407
		samples[i] = campaign.NullFloat(float64(x%1000) / 10)
	}
	return &campaign.Record{
		Campaign: pt.Campaign,
		Point:    pt.Key,
		Seed:     spec.Seed,
		Full:     spec.Full,
		Trials:   trials,
		Samples:  map[string][]campaign.NullFloat{"rounds": samples},
	}
}

var synthRunner = RunnerFunc(func(l *Lease) (*campaign.Record, error) {
	return synthRecord(l.Point, l.Spec, l.Trials), nil
})

// chaosOptions are the fast-clock settings the e2e tests run under:
// everything scaled so worker death is detected and healed in tens of
// milliseconds.
func chaosOptions(t *testing.T, n int) Options {
	t.Helper()
	return Options{
		DataDir:          t.TempDir(),
		Expand:           synthExpand(n),
		LeaseTTL:         250 * time.Millisecond,
		HeartbeatTimeout: 150 * time.Millisecond,
		MaxAttempts:      4,
		BackoffBase:      5 * time.Millisecond,
		BackoffMax:       40 * time.Millisecond,
	}
}

// startDaemon runs queue + HTTP server + sweeper, all torn down with the test.
func startDaemon(t *testing.T, opts Options) (*Client, *Queue) {
	t.Helper()
	q, err := NewQueue(opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(q)
	ts := httptest.NewServer(srv)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.RunSweeper(20*time.Millisecond, stop)
	}()
	t.Cleanup(func() {
		close(stop)
		<-done
		ts.Close()
	})
	return NewClient(ts.URL), q
}

// waitComplete polls until the job reports complete or the deadline passes.
func waitComplete(t *testing.T, c *Client, job string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := c.Status(t.Context(), job)
		if err != nil {
			t.Fatalf("Status(%s): %v", job, err)
		}
		if st.State == "complete" {
			return *st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not complete after %v: %+v", job, timeout, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// recordLines reads a JSONL file into a (campaign/point → raw line) map.
func recordLines(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read records: %v", err)
	}
	out := map[string]string{}
	for i, ln := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(ln) == "" {
			continue
		}
		var r campaign.Record
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("records line %d corrupt: %v", i+1, err)
		}
		key := r.Campaign + "/" + r.Point
		if _, dup := out[key]; dup {
			t.Fatalf("records contain %s twice", key)
		}
		out[key] = ln
	}
	return out
}

// expectedLines renders the records an uninterrupted single-process run
// would have produced, in the daemon's own wire encoding.
func expectedLines(t *testing.T, spec JobSpec, n, trials int) map[string]string {
	t.Helper()
	pts, _, err := synthExpand(n)(spec)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, pt := range pts {
		rec := synthRecord(pt, spec, trials)
		data, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out[pt.Campaign+"/"+pt.Key] = string(data)
	}
	return out
}

func assertSameRecords(t *testing.T, got, want map[string]string) {
	t.Helper()
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Errorf("missing record for %s", k)
			continue
		}
		if g != w {
			t.Errorf("record %s differs from single-process run:\n got %s\nwant %s", k, g, w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("unexpected extra record %s", k)
		}
	}
}

// TestE2EChaosKilledWorker is the headline fault-injection test: two
// workers share a campaign, one is chaos-killed mid-point (it dies holding
// an unreported lease, heartbeats and all), and the merged record stream
// must still be byte-identical to an unsharded single-process run.
func TestE2EChaosKilledWorker(t *testing.T) {
	const n = 12
	c, q := startDaemon(t, chaosOptions(t, n))
	spec := JobSpec{ID: "chaos", Experiments: []string{"all"}, Seed: 1234}
	if _, err := c.Submit(t.Context(), spec); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The victim runs alone first so the kill is deterministic (racing a
	// survivor on a fast grid, the queue can drain before the victim ever
	// reaches its 3rd lease): it finishes 2 points, then dies holding its
	// 3rd lease — heartbeats stop, the point is never reported.
	killedErr := RunWorker(ctx, c, synthRunner, WorkerOptions{
		ID: "victim", Poll: 5 * time.Millisecond, ChaosKillAtLease: 3,
	})
	if !errors.Is(killedErr, ErrChaosKill) {
		t.Fatalf("victim exited %v, want ErrChaosKill", killedErr)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the survivor drains everything the victim dropped
		defer wg.Done()
		RunWorker(ctx, c, synthRunner, WorkerOptions{ //nolint:errcheck
			ID: "survivor", Poll: 5 * time.Millisecond,
		})
	}()

	st := waitComplete(t, c, "chaos", 30*time.Second)
	cancel()
	wg.Wait()
	if st.Done != n || st.Failed != 0 {
		t.Fatalf("done=%d failed=%d, want %d/0", st.Done, st.Failed, n)
	}
	if st.Requeues < 1 {
		t.Fatalf("requeues=%d — the victim's abandoned lease was never recovered", st.Requeues)
	}
	path, _ := q.RecordsPath("chaos")
	assertSameRecords(t, recordLines(t, path), expectedLines(t, spec, n, 5))

	m, err := c.ManifestOf(t.Context(), "chaos")
	if err != nil || m.Failed != 0 || len(m.Failures) != 0 {
		t.Fatalf("manifest after clean chaos run: %+v, %v", m, err)
	}
}

// TestE2ETransientFailureRetries injects one first-attempt failure and
// checks the point heals through the backoff/retry path end to end.
func TestE2ETransientFailureRetries(t *testing.T) {
	const n = 6
	c, q := startDaemon(t, chaosOptions(t, n))
	spec := JobSpec{ID: "flaky", Experiments: []string{"all"}, Seed: 55}
	if _, err := c.Submit(t.Context(), spec); err != nil {
		t.Fatal(err)
	}

	flaky := RunnerFunc(func(l *Lease) (*campaign.Record, error) {
		if l.Point.Key == "p03" && l.Attempt == 1 {
			return nil, fmt.Errorf("transient: simulated OOM")
		}
		return synthRunner(l)
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		RunWorker(ctx, c, flaky, WorkerOptions{ID: "w1", Poll: 5 * time.Millisecond}) //nolint:errcheck
	}()

	st := waitComplete(t, c, "flaky", 30*time.Second)
	cancel()
	wg.Wait()

	if st.Done != n || st.Failed != 0 || st.Retries < 1 {
		t.Fatalf("done=%d failed=%d retries=%d, want %d/0/≥1", st.Done, st.Failed, st.Retries, n)
	}
	path, _ := q.RecordsPath("flaky")
	assertSameRecords(t, recordLines(t, path), expectedLines(t, spec, n, 5))
}

// TestE2EPermanentFailureDegradesGracefully makes one point fail every
// attempt: the campaign must still complete, with that point — and only
// that point — recorded as an explicit hole in the failure manifest.
func TestE2EPermanentFailureDegradesGracefully(t *testing.T) {
	const n = 6
	opts := chaosOptions(t, n)
	opts.MaxAttempts = 2
	c, q := startDaemon(t, opts)
	spec := JobSpec{ID: "holey", Experiments: []string{"all"}, Seed: 77}
	if _, err := c.Submit(t.Context(), spec); err != nil {
		t.Fatal(err)
	}

	broken := RunnerFunc(func(l *Lease) (*campaign.Record, error) {
		if l.Point.Key == "p02" {
			return nil, fmt.Errorf("permanent: parameter regime diverges")
		}
		return synthRunner(l)
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		RunWorker(ctx, c, broken, WorkerOptions{ID: "w1", Poll: 5 * time.Millisecond}) //nolint:errcheck
	}()

	st := waitComplete(t, c, "holey", 30*time.Second)
	cancel()
	wg.Wait()

	if st.Done != n-1 || st.Failed != 1 {
		t.Fatalf("done=%d failed=%d, want %d/1", st.Done, st.Failed, n-1)
	}
	m, err := c.ManifestOf(t.Context(), "holey")
	if err != nil || len(m.Failures) != 1 {
		t.Fatalf("manifest %+v, %v; want exactly one hole", m, err)
	}
	f := m.Failures[0]
	if f.Point.Key != "p02" || f.Attempts != 2 || !strings.Contains(f.LastErr, "parameter regime diverges") {
		t.Fatalf("manifest hole %+v", f)
	}
	// The other five records are still the single-process bytes.
	want := expectedLines(t, spec, n, 5)
	delete(want, "synth/p02")
	path, _ := q.RecordsPath("holey")
	assertSameRecords(t, recordLines(t, path), want)

	// The persisted manifest carries the hole too.
	data, err := os.ReadFile(strings.TrimSuffix(path, "records.jsonl") + "manifest.json")
	if err != nil || !strings.Contains(string(data), "parameter regime diverges") {
		t.Fatalf("persisted manifest: %v\n%s", err, data)
	}
}
