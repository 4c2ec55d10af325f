package jobqueue

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
)

// fakeClock is the injectable time source the expiry tests advance by hand.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// synthExpand builds an n-point synthetic grid under one campaign ID.
func synthExpand(n int) Expander {
	return func(spec JobSpec) ([]PointRef, int, error) {
		pts := make([]PointRef, n)
		for i := range pts {
			pts[i] = PointRef{Campaign: "synth", Key: fmt.Sprintf("p%02d", i)}
		}
		return pts, 5, nil
	}
}

// testOptions is the deterministic baseline: 10s TTL, 5s heartbeat window,
// zero jitter (backoff == d/2 exactly), hand-cranked clock.
func testOptions(t *testing.T, clk *fakeClock, n int) Options {
	t.Helper()
	return Options{
		DataDir:          t.TempDir(),
		Expand:           synthExpand(n),
		LeaseTTL:         10 * time.Second,
		HeartbeatTimeout: 5 * time.Second,
		MaxAttempts:      3,
		BackoffBase:      time.Second,
		BackoffMax:       8 * time.Second,
		Jitter:           func() float64 { return 0 },
		Now:              clk.now,
	}
}

func newTestQueue(t *testing.T, clk *fakeClock, n int, mutate func(*Options)) *Queue {
	t.Helper()
	opts := testOptions(t, clk, n)
	if mutate != nil {
		mutate(&opts)
	}
	q, err := NewQueue(opts)
	if err != nil {
		t.Fatalf("NewQueue: %v", err)
	}
	return q
}

// recFor fabricates the record a well-behaved worker would report for a
// lease (the synthetic analogue of seed-pure recomputation).
func recFor(l *Lease) *campaign.Record {
	return &campaign.Record{
		Campaign: l.Point.Campaign,
		Point:    l.Point.Key,
		Seed:     l.Spec.Seed,
		Full:     l.Spec.Full,
		Trials:   l.Trials,
		Samples:  map[string][]campaign.NullFloat{"x": {campaign.NullFloat(1)}},
	}
}

func mustSubmit(t *testing.T, q *Queue, spec JobSpec) JobStatus {
	t.Helper()
	st, err := q.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return st
}

func mustAcquire(t *testing.T, q *Queue, worker string) *Lease {
	t.Helper()
	l, err := q.Acquire(worker)
	if err != nil {
		t.Fatalf("Acquire(%s): %v", worker, err)
	}
	if l == nil {
		t.Fatalf("Acquire(%s): nothing runnable, want a lease", worker)
	}
	return l
}

func sinkLines(t *testing.T, q *Queue, job string) int {
	t.Helper()
	path, ok := q.RecordsPath(job)
	if !ok {
		t.Fatalf("RecordsPath(%s): unknown job", job)
	}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0
	}
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(ln) != "" {
			n++
		}
	}
	return n
}

func TestLeaseExpiryRequeues(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(t, clk, 1, nil)
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 7})

	l1 := mustAcquire(t, q, "w1")
	if l1.Attempt != 1 {
		t.Fatalf("first lease attempt = %d, want 1", l1.Attempt)
	}
	// Unexpired: nothing to sweep, nothing else runnable.
	if n := q.Sweep(); n != 0 {
		t.Fatalf("Sweep before expiry requeued %d", n)
	}
	if l, _ := q.Acquire("w2"); l != nil {
		t.Fatalf("point double-leased while l1 live")
	}

	clk.advance(11 * time.Second) // past the 10s TTL
	if n := q.Sweep(); n != 1 {
		t.Fatalf("Sweep after expiry requeued %d, want 1", n)
	}
	st, _ := q.Status("j")
	if st.Requeues != 1 || st.Pending != 1 || st.Leased != 0 {
		t.Fatalf("after expiry: requeues=%d pending=%d leased=%d, want 1/1/0", st.Requeues, st.Pending, st.Leased)
	}

	// The point is stealable immediately (no backoff for presumed-dead workers).
	l2 := mustAcquire(t, q, "w2")
	if l2.Attempt != 2 || l2.ID == l1.ID {
		t.Fatalf("requeued lease attempt=%d id=%d (old id %d), want attempt 2 and a fresh id", l2.Attempt, l2.ID, l1.ID)
	}
	if err := q.Complete(l2.Ref(), recFor(l2)); err != nil {
		t.Fatalf("Complete: %v", err)
	}
	st, _ = q.Status("j")
	if st.State != "complete" || st.Done != 1 || st.Failed != 0 {
		t.Fatalf("final status: %+v", st)
	}
}

func TestHeartbeatExtendsLeaseDeadline(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(t, clk, 1, nil)
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 7})
	l := mustAcquire(t, q, "w1")

	// Heartbeat every 4s; by t0+14 the original t0+10 deadline has long
	// passed, but each beat pushed it out — the lease must survive.
	for i := 0; i < 3; i++ {
		clk.advance(4 * time.Second)
		if err := q.HeartbeatLeases("w1", []uint64{l.ID}); err != nil {
			t.Fatalf("Heartbeat: %v", err)
		}
		if n := q.Sweep(); n != 0 {
			t.Fatalf("Sweep at +%ds requeued %d despite heartbeats", 4*(i+1), n)
		}
	}
	clk.advance(2 * time.Second) // t0+14: deadline is t0+12+10
	if n := q.Sweep(); n != 0 {
		t.Fatalf("Sweep requeued a heartbeat-renewed lease")
	}
	st, _ := q.Status("j")
	if st.Leased != 1 || st.Requeues != 0 {
		t.Fatalf("leased=%d requeues=%d, want 1/0", st.Leased, st.Requeues)
	}
}

func TestHeartbeatTimeoutRequeuesOnlySilentWorker(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(t, clk, 2, nil)
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 7})
	lDead := mustAcquire(t, q, "dead")
	lLive := mustAcquire(t, q, "live")

	clk.advance(4 * time.Second)
	if err := q.HeartbeatLeases("live", []uint64{lLive.ID}); err != nil {
		t.Fatal(err)
	}
	clk.advance(2 * time.Second) // dead silent 6s > 5s window; deadlines (t0+10) unexpired
	if n := q.Sweep(); n != 1 {
		t.Fatalf("Sweep requeued %d leases, want only the silent worker's", n)
	}
	st, _ := q.Status("j")
	if st.Requeues != 1 || st.Leased != 1 || st.Pending != 1 {
		t.Fatalf("requeues=%d leased=%d pending=%d, want 1/1/1", st.Requeues, st.Leased, st.Pending)
	}
	if len(st.Leases) != 1 || st.Leases[0].Worker != "live" {
		t.Fatalf("surviving lease = %+v, want live's %v (dead's was %v)", st.Leases, lLive.Point, lDead.Point)
	}
}

// TestZombieLeaseExpiresDespiteHeartbeats pins the lost-grant hazard: the
// daemon grants a lease but the response never reaches the worker (severed
// mid-body by a crash). The worker keeps heartbeating with its manifest of
// known leases, which must NOT keep the orphan alive — it runs out its
// deadline and the sweeper requeues the point.
func TestZombieLeaseExpiresDespiteHeartbeats(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(t, clk, 4, nil)
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 9})
	known := mustAcquire(t, q, "w1")  // the worker got this response
	zombie := mustAcquire(t, q, "w1") // this response was lost in transit
	clk.advance(6 * time.Second)
	if err := q.HeartbeatLeases("w1", []uint64{known.ID}); err != nil {
		t.Fatal(err)
	}
	clk.advance(5 * time.Second) // t=11s: known renewed to 16s, zombie expired at 10s
	if n := q.Sweep(); n != 1 {
		t.Fatalf("sweep requeued %d lease(s), want 1 (the zombie)", n)
	}
	st, _ := q.Status("j")
	if st.Leased != 1 || st.Requeues != 1 {
		t.Fatalf("after zombie sweep: %+v", st)
	}
	if len(st.Leases) != 1 || st.Leases[0].Point != known.Point {
		t.Fatalf("wrong lease survived: %+v (zombie was %s)", st.Leases, zombie.Point.Key)
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(t, clk, 1, nil) // base 1s, max 8s, jitter 0 → exactly d/2
	want := []time.Duration{
		500 * time.Millisecond, // attempt 1: d=1s
		time.Second,            // attempt 2: d=2s
		2 * time.Second,        // attempt 3: d=4s
		4 * time.Second,        // attempt 4: d=8s (cap)
		4 * time.Second,        // attempt 5: still capped
		4 * time.Second,        // attempt 9: still capped (no overflow)
	}
	for i, attempts := range []int{1, 2, 3, 4, 5, 9} {
		if got := q.backoff(attempts); got != want[i] {
			t.Errorf("backoff(%d) = %v, want %v", attempts, got, want[i])
		}
	}

	// Jitter spreads within [d/2, d): at jitter j the delay is (1+j)·d/2.
	q.opts.Jitter = func() float64 { return 0.5 }
	if got, want := q.backoff(2), 1500*time.Millisecond; got != want {
		t.Errorf("backoff(2) with jitter 0.5 = %v, want %v", got, want)
	}
	q.opts.Jitter = func() float64 { return 0.999 }
	if got := q.backoff(2); got < time.Second || got >= 2*time.Second {
		t.Errorf("backoff(2) with jitter 0.999 = %v, want in [1s, 2s)", got)
	}
}

func TestFailureRetriesWithBackoffGate(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(t, clk, 1, nil)
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 7})

	l1 := mustAcquire(t, q, "w1")
	if err := q.Fail(l1.Ref(), "transient"); err != nil {
		t.Fatalf("Fail: %v", err)
	}
	// Backoff after attempt 1 is 500ms (jitter 0): not runnable before then.
	if l, _ := q.Acquire("w1"); l != nil {
		t.Fatalf("point runnable inside its backoff window")
	}
	clk.advance(499 * time.Millisecond)
	if l, _ := q.Acquire("w1"); l != nil {
		t.Fatalf("point runnable 1ms before its backoff gate")
	}
	clk.advance(2 * time.Millisecond)
	l2 := mustAcquire(t, q, "w1")
	if l2.Attempt != 2 {
		t.Fatalf("retry attempt = %d, want 2", l2.Attempt)
	}
	st, _ := q.Status("j")
	if st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
}

func TestMaxAttemptsLandsInManifest(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(t, clk, 2, nil) // MaxAttempts 3
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 7})

	// Exhaust p00 with three reported failures.
	var unlucky PointRef
	for attempt := 1; attempt <= 3; attempt++ {
		clk.advance(10 * time.Second) // clear any backoff gate
		l := mustAcquire(t, q, "w1")
		if attempt == 1 {
			unlucky = l.Point
		} else if l.Point != unlucky {
			// Round-robin may hand out the healthy point first; finish it.
			if err := q.Complete(l.Ref(), recFor(l)); err != nil {
				t.Fatal(err)
			}
			attempt--
			continue
		}
		if err := q.Fail(l.Ref(), fmt.Sprintf("boom %d", attempt)); err != nil {
			t.Fatal(err)
		}
	}
	// Finish the healthy point if it is still open.
	for {
		clk.advance(10 * time.Second)
		l, err := q.Acquire("w1")
		if err != nil {
			t.Fatal(err)
		}
		if l == nil {
			break
		}
		if err := q.Complete(l.Ref(), recFor(l)); err != nil {
			t.Fatal(err)
		}
	}

	st, _ := q.Status("j")
	if st.State != "complete" {
		t.Fatalf("job not complete after exhaustion: %+v", st)
	}
	if st.Done != 1 || st.Failed != 1 {
		t.Fatalf("done=%d failed=%d, want 1/1", st.Done, st.Failed)
	}
	m, ok := q.ManifestOf("j")
	if !ok || len(m.Failures) != 1 {
		t.Fatalf("manifest failures = %+v, want exactly the exhausted point", m.Failures)
	}
	f := m.Failures[0]
	if f.Point != unlucky || f.Attempts != 3 || !strings.Contains(f.LastErr, "boom 3") {
		t.Fatalf("manifest entry = %+v", f)
	}
	// The manifest is also persisted next to the records.
	path, _ := q.RecordsPath("j")
	data, err := os.ReadFile(strings.TrimSuffix(path, "records.jsonl") + "manifest.json")
	if err != nil {
		t.Fatalf("manifest file: %v", err)
	}
	if !strings.Contains(string(data), "boom 3") {
		t.Fatalf("persisted manifest missing failure entry:\n%s", data)
	}
	if n := sinkLines(t, q, "j"); n != 1 {
		t.Fatalf("records.jsonl has %d lines, want 1 (the completed point only)", n)
	}
}

func TestAcquireRoundRobinsAcrossJobs(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(t, clk, 2, nil)
	mustSubmit(t, q, JobSpec{ID: "a", Experiments: []string{"all"}, Seed: 1})
	mustSubmit(t, q, JobSpec{ID: "b", Experiments: []string{"all"}, Seed: 2})

	var jobs []string
	for i := 0; i < 4; i++ {
		jobs = append(jobs, mustAcquire(t, q, "w1").Job)
	}
	got := strings.Join(jobs, ",")
	if got != "a,b,a,b" && got != "b,a,b,a" {
		t.Fatalf("dispatch order %s, want strict alternation between jobs", got)
	}
}

func TestDuplicateCompletionDiscarded(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(t, clk, 1, nil)
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 7})

	l1 := mustAcquire(t, q, "w1")
	clk.advance(11 * time.Second)
	q.Sweep() // w1 presumed dead; point stolen
	l2 := mustAcquire(t, q, "w2")
	if err := q.Complete(l2.Ref(), recFor(l2)); err != nil {
		t.Fatal(err)
	}
	// w1 was merely slow: its late duplicate must be swallowed, not double-
	// appended and not an error (the worker did nothing wrong).
	if err := q.Complete(l1.Ref(), recFor(l1)); err != nil {
		t.Fatalf("duplicate completion errored: %v", err)
	}
	st, _ := q.Status("j")
	if st.Duplicates != 1 || st.Done != 1 {
		t.Fatalf("duplicates=%d done=%d, want 1/1", st.Duplicates, st.Done)
	}
	if n := sinkLines(t, q, "j"); n != 1 {
		t.Fatalf("records.jsonl has %d lines after duplicate, want 1", n)
	}
}

func TestStaleLeaseCompletionWins(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(t, clk, 1, nil)
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 7})

	l1 := mustAcquire(t, q, "w1")
	clk.advance(11 * time.Second)
	q.Sweep() // lease revoked, point pending again
	// w1 delivers before anyone steals the point: first completion wins even
	// from a revoked lease — the record is bit-identical by seed purity.
	if err := q.Complete(l1.Ref(), recFor(l1)); err != nil {
		t.Fatalf("stale-lease completion rejected: %v", err)
	}
	st, _ := q.Status("j")
	if st.State != "complete" || st.Done != 1 {
		t.Fatalf("status after stale completion: %+v", st)
	}
	if l, _ := q.Acquire("w2"); l != nil {
		t.Fatalf("completed point re-leased to %s", l.Worker)
	}
}

func TestLateCompletionHealsManifestHole(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(t, clk, 2, func(o *Options) { o.MaxAttempts = 1 })
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 7})

	l1 := mustAcquire(t, q, "w1")
	clk.advance(11 * time.Second)
	q.Sweep() // budget of 1 spent → the point is written off as failed
	st, _ := q.Status("j")
	if st.Failed != 1 {
		t.Fatalf("failed=%d after exhausting requeue budget, want 1", st.Failed)
	}
	// The straggler delivers anyway while the job is still running: the hole
	// heals instead of losing a perfectly good record.
	if err := q.Complete(l1.Ref(), recFor(l1)); err != nil {
		t.Fatalf("late completion: %v", err)
	}
	st, _ = q.Status("j")
	if st.Failed != 0 || st.Done != 1 {
		t.Fatalf("failed=%d done=%d after heal, want 0/1", st.Failed, st.Done)
	}
	l2 := mustAcquire(t, q, "w2")
	if err := q.Complete(l2.Ref(), recFor(l2)); err != nil {
		t.Fatal(err)
	}
	m, _ := q.ManifestOf("j")
	if len(m.Failures) != 0 || m.Done != 2 {
		t.Fatalf("final manifest %+v, want 2 done and no failures", m)
	}
}

func TestMismatchedRecordBurnsAttempt(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(t, clk, 1, nil)
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 7})

	l1 := mustAcquire(t, q, "w1")
	bad := recFor(l1)
	bad.Seed = 999 // not what the lease asked for
	if err := q.Complete(l1.Ref(), bad); err == nil {
		t.Fatalf("mismatched record accepted")
	}
	st, _ := q.Status("j")
	if st.Retries != 1 || st.Done != 0 || st.Pending != 1 {
		t.Fatalf("after mismatch: retries=%d done=%d pending=%d, want 1/0/1", st.Retries, st.Done, st.Pending)
	}
	clk.advance(time.Second)
	l2 := mustAcquire(t, q, "w2")
	if l2.Attempt != 2 {
		t.Fatalf("attempt after mismatch = %d, want 2", l2.Attempt)
	}
	if err := q.Complete(l2.Ref(), recFor(l2)); err != nil {
		t.Fatal(err)
	}
	if n := sinkLines(t, q, "j"); n != 1 {
		t.Fatalf("records.jsonl has %d lines, want 1", n)
	}
}

func TestStaleFailureReportIgnored(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(t, clk, 1, nil)
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 7})

	l1 := mustAcquire(t, q, "w1")
	clk.advance(11 * time.Second)
	q.Sweep()
	l2 := mustAcquire(t, q, "w2")
	// w1's late failure report refers to a revoked lease: it must not burn
	// one of the point's attempts or disturb w2's live lease.
	if err := q.Fail(l1.Ref(), "late and irrelevant"); err != nil {
		t.Fatalf("stale Fail errored: %v", err)
	}
	st, _ := q.Status("j")
	if st.Retries != 0 || st.Leased != 1 {
		t.Fatalf("after stale failure: retries=%d leased=%d, want 0/1", st.Retries, st.Leased)
	}
	if err := q.Complete(l2.Ref(), recFor(l2)); err != nil {
		t.Fatal(err)
	}
}

func TestSubmitValidation(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(t, clk, 1, nil)
	cases := []struct {
		name string
		spec JobSpec
		want string
	}{
		{"path traversal id", JobSpec{ID: "../evil", Experiments: []string{"all"}}, "invalid job id"},
		{"slash id", JobSpec{ID: "a/b", Experiments: []string{"all"}}, "invalid job id"},
		{"dot id", JobSpec{ID: ".", Experiments: []string{"all"}}, "invalid job id"},
	}
	for _, tc := range cases {
		if _, err := q.Submit(tc.spec); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	mustSubmit(t, q, JobSpec{ID: "dup", Experiments: []string{"all"}})
	if _, err := q.Submit(JobSpec{ID: "dup", Experiments: []string{"all"}}); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("duplicate id: err = %v", err)
	}

	// Expander errors surface verbatim; empty grids are refused.
	qe := newTestQueue(t, clk, 1, func(o *Options) {
		o.Expand = func(JobSpec) ([]PointRef, int, error) { return nil, 0, fmt.Errorf("no such experiment") }
	})
	if _, err := qe.Submit(JobSpec{ID: "x", Experiments: []string{"bogus"}}); err == nil || !strings.Contains(err.Error(), "no such experiment") {
		t.Errorf("expander error: %v", err)
	}
	qz := newTestQueue(t, clk, 0, nil)
	if _, err := qz.Submit(JobSpec{ID: "z", Experiments: []string{"all"}}); err == nil || !strings.Contains(err.Error(), "zero grid points") {
		t.Errorf("zero points: %v", err)
	}
}

func TestAutoJobIDsAssigned(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(t, clk, 1, nil)
	st1 := mustSubmit(t, q, JobSpec{Experiments: []string{"all"}})
	st2 := mustSubmit(t, q, JobSpec{Experiments: []string{"all"}})
	if st1.ID != "job-001" || st2.ID != "job-002" {
		t.Fatalf("auto IDs %q, %q; want job-001, job-002", st1.ID, st2.ID)
	}
}

func TestResumeMarksCheckpointedPointsDone(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	mk := func() *Queue {
		opts := testOptions(t, clk, 3)
		opts.DataDir = dir
		q, err := NewQueue(opts)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	spec := JobSpec{ID: "r", Experiments: []string{"all"}, Seed: 42}

	// First daemon lifetime: finish 2 of 3 points, then "crash".
	q1 := mk()
	mustSubmit(t, q1, spec)
	for i := 0; i < 2; i++ {
		l := mustAcquire(t, q1, "w1")
		if err := q1.Complete(l.Ref(), recFor(l)); err != nil {
			t.Fatal(err)
		}
	}
	if err := q1.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh daemon over the same data dir refuses a blind resubmit...
	q2 := mk()
	if _, err := q2.Submit(spec); err == nil || !strings.Contains(err.Error(), "already holds records") {
		t.Fatalf("resubmit without resume: err = %v, want checkpoint refusal", err)
	}
	// ...but resumes cleanly: 2 points pre-done, only 1 left to run.
	resumed := spec
	resumed.Resume = true
	st := mustSubmit(t, q2, resumed)
	if st.Done != 2 || st.Pending != 1 {
		t.Fatalf("resumed status done=%d pending=%d, want 2/1", st.Done, st.Pending)
	}
	l := mustAcquire(t, q2, "w1")
	if err := q2.Complete(l.Ref(), recFor(l)); err != nil {
		t.Fatal(err)
	}
	st, _ = q2.Status("r")
	if st.State != "complete" || st.Done != 3 {
		t.Fatalf("final resumed status: %+v", st)
	}
	if n := sinkLines(t, q2, "r"); n != 3 {
		t.Fatalf("records.jsonl has %d lines after resume, want 3", n)
	}
}

func TestResumeIgnoresMismatchedSeedRecords(t *testing.T) {
	clk := newFakeClock()
	dir := t.TempDir()
	opts := testOptions(t, clk, 2)
	opts.DataDir = dir
	q1, err := NewQueue(opts)
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q1, JobSpec{ID: "r", Experiments: []string{"all"}, Seed: 1})
	l := mustAcquire(t, q1, "w1")
	if err := q1.Complete(l.Ref(), recFor(l)); err != nil {
		t.Fatal(err)
	}
	if err := q1.Close(); err != nil {
		t.Fatal(err)
	}

	// Resuming under a different seed must not trust the old records.
	opts2 := testOptions(t, clk, 2)
	opts2.DataDir = dir
	q2, err := NewQueue(opts2)
	if err != nil {
		t.Fatal(err)
	}
	st := mustSubmit(t, q2, JobSpec{ID: "r", Experiments: []string{"all"}, Seed: 2, Resume: true})
	if st.Done != 0 || st.Pending != 2 {
		t.Fatalf("seed-changed resume done=%d pending=%d, want 0/2", st.Done, st.Pending)
	}
}

// TestResumeKeepsManifestHoles: resuming a degraded job keeps the holes of
// its manifest failed instead of running them again, unless the manifest
// was written for another seed.
func TestResumeKeepsManifestHoles(t *testing.T) {
	clk := newFakeClock()
	opts := testOptions(t, clk, 2)
	opts.MaxAttempts = 1
	q1, err := NewQueue(opts)
	if err != nil {
		t.Fatal(err)
	}
	mustSubmit(t, q1, JobSpec{ID: "r", Experiments: []string{"all"}, Seed: 1})
	l := mustAcquire(t, q1, "w1")
	if err := q1.Complete(l.Ref(), recFor(l)); err != nil {
		t.Fatal(err)
	}
	if err := q1.Fail(mustAcquire(t, q1, "w1").Ref(), "poison point"); err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		seed                  uint64
		state                 string
		done, failed, pending int
	}{
		{1, "complete", 1, 1, 0}, // the hole stays; nothing is left to run
		{2, "running", 0, 0, 2},  // neither records nor holes carry over
	} {
		q, err := NewQueue(opts)
		if err != nil {
			t.Fatal(err)
		}
		st := mustSubmit(t, q, JobSpec{ID: "r", Experiments: []string{"all"}, Seed: c.seed, Resume: true})
		if st.State != c.state || st.Done != c.done || st.Failed != c.failed || st.Pending != c.pending {
			t.Errorf("resume under seed %d: %+v, want %s with %d done, %d failed, %d pending",
				c.seed, st, c.state, c.done, c.failed, c.pending)
		}
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHealthzCountsLiveWorkers(t *testing.T) {
	clk := newFakeClock()
	q := newTestQueue(t, clk, 1, nil)
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}})
	if err := q.RegisterWorker("w1"); err != nil {
		t.Fatal(err)
	}
	if err := q.RegisterWorker("w2"); err != nil {
		t.Fatal(err)
	}
	clk.advance(4 * time.Second)
	if err := q.HeartbeatLeases("w2", nil); err != nil { // w2 holds no lease
		t.Fatal(err)
	}
	clk.advance(3 * time.Second) // w1 silent 7s > 5s window
	h := q.Healthz()
	if h.Workers != 2 || h.LiveWorkers != 1 || h.Jobs != 1 || h.RunningJobs != 1 {
		t.Fatalf("healthz %+v, want 2 workers / 1 live / 1 running job", h)
	}
}
