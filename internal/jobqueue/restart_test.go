package jobqueue

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// durableOptions is testOptions plus a state dir: the job-logging variant
// of the deterministic baseline.
func durableOptions(t *testing.T, clk *fakeClock, n int) Options {
	t.Helper()
	opts := testOptions(t, clk, n)
	opts.StateDir = t.TempDir()
	return opts
}

func mustOpen(t *testing.T, opts Options) *Queue {
	t.Helper()
	q, err := NewQueue(opts)
	if err != nil {
		t.Fatalf("NewQueue: %v", err)
	}
	return q
}

func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, rerr := filepath.Rel(src, p)
		if rerr != nil {
			return rerr
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, rerr := os.ReadFile(p)
		if rerr != nil {
			return rerr
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// driveMixedWorkload pushes one job through every task lifecycle state:
// a completed point, a reported failure waiting out its backoff, a point
// requeued by the sweeper after its worker died, a live leased point
// (heartbeat-renewed), and untouched pending points. Returns the live
// lease so tests can exercise it across a crash.
func driveMixedWorkload(t *testing.T, q *Queue, clk *fakeClock) *Lease {
	t.Helper()
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 42})
	done := mustAcquire(t, q, "w1")
	if err := q.Complete(done.Ref(), recFor(done)); err != nil {
		t.Fatal(err)
	}
	flaky := mustAcquire(t, q, "w2")
	if err := q.Fail(flaky.Ref(), "injected transient"); err != nil {
		t.Fatal(err)
	}
	abandoned := mustAcquire(t, q, "w3")
	_ = abandoned // w3 dies silently; the sweep recovers its lease
	clk.advance(11 * time.Second)
	if n := q.Sweep(); n != 1 {
		t.Fatalf("sweep requeued %d lease(s), want 1", n)
	}
	live := mustAcquire(t, q, "w1")
	if err := q.HeartbeatLeases("w1", []uint64{live.ID}); err != nil {
		t.Fatal(err)
	}
	return live
}

// TestRestartRebuildsFromRecords is the heart of the durability contract:
// a queue that crashed (no Close) and was reopened over the same dirs has
// every recorded point done and every other point pending from scratch —
// no leases, attempt 0, no backoff gate, counters reset — and the old
// world keeps working against it: the live lease holder's completion is
// accepted, and a duplicate completion from the outage window is
// discarded, not double-appended.
func TestRestartRebuildsFromRecords(t *testing.T) {
	clk := newFakeClock()
	opts := durableOptions(t, clk, 6)
	live := driveMixedWorkload(t, mustOpen(t, opts), clk)
	// Crash: the first queue is simply abandoned mid-flight.
	clk.advance(time.Second)

	q := mustOpen(t, opts)
	st, ok := q.Status("j")
	if !ok {
		t.Fatal("job lost across restart")
	}
	if st.State != "running" || st.Done != 1 || st.Pending != 5 || st.Leased != 0 || st.Failed != 0 ||
		st.Requeues != 0 || st.Retries != 0 || st.Duplicates != 0 {
		t.Fatalf("restored status: %+v", st)
	}
	for _, task := range q.jobs["j"].tasks {
		if task.state != taskDone && (task.state != taskPending || task.attempts != 0 || !task.notBefore.IsZero()) {
			t.Fatalf("point %s restored in state %d, attempt %d, gate %v; want pending from scratch",
				task.ref.Key, task.state, task.attempts, task.notBefore)
		}
	}

	// The worker that outlived the daemon finishes its point unaided.
	if err := q.Complete(live.Ref(), recFor(live)); err != nil {
		t.Fatalf("completion of pre-crash lease refused: %v", err)
	}
	// A worker that completed during the outage resends: first-valid-wins.
	again := live.Ref()
	again.Worker = "w9"
	if err := q.Complete(again, recFor(live)); err != nil {
		t.Fatalf("duplicate completion errored: %v", err)
	}
	st, _ = q.Status("j")
	if st.Done != 2 || st.Duplicates != 1 {
		t.Fatalf("after post-crash completion: %+v", st)
	}
	if got := sinkLines(t, q, "j"); got != 2 {
		t.Fatalf("checkpoint holds %d records, want 2 (no double append)", got)
	}
	// The new incarnation starts counting attempts afresh and never
	// reissues a lease ID of the old one.
	fresh := mustAcquire(t, q, "w2")
	if fresh.Attempt != 1 || fresh.ID <= live.ID {
		t.Fatalf("first lease after restart: attempt %d, id %d; want attempt 1 and an id above %d", fresh.Attempt, fresh.ID, live.ID)
	}
}

// TestStaleReportAfterRestartReleasesOnlyItsPoint pins the lease guards.
// A worker reports a lease granted before a restart, and the restarted
// queue has since granted that ID for another point (the fake clock does
// not move, so lease IDs repeat). The report must release only the lease
// of its own point: releasing the other one would leave that point leased
// with no lease to sweep, and the job would hang. Both restart paths are
// covered: a state directory, and a plain restart plus a Resume submit.
func TestStaleReportAfterRestartReleasesOnlyItsPoint(t *testing.T) {
	for _, durable := range []bool{false, true} {
		t.Run(fmt.Sprintf("durable=%v", durable), func(t *testing.T) {
			clk := newFakeClock()
			opts := testOptions(t, clk, 4)
			if durable {
				opts.StateDir = t.TempDir()
			}
			spec := JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 3}
			q1 := mustOpen(t, opts)
			mustSubmit(t, q1, spec)
			done := mustAcquire(t, q1, "w1")
			stale := mustAcquire(t, q1, "w1")
			if err := q1.Complete(done.Ref(), recFor(done)); err != nil {
				t.Fatal(err)
			}
			// Crash, and restart at the same instant.
			q := mustOpen(t, opts)
			if !durable {
				spec.Resume = true
				mustSubmit(t, q, spec)
			}
			mustAcquire(t, q, "w2")
			mustAcquire(t, q, "w2")
			if err := q.Complete(stale.Ref(), recFor(stale)); err != nil {
				t.Fatalf("completion of pre-restart lease refused: %v", err)
			}
			// w2 dies: every lease it still holds must come back.
			before, _ := q.Status("j")
			clk.advance(11 * time.Second)
			if n := q.Sweep(); n != before.Leased {
				t.Fatalf("sweep requeued %d lease(s), want all %d points w2 held", n, before.Leased)
			}
			st, _ := q.Status("j")
			if st.Done != 2 || st.Leased != 0 || st.Pending != 2 {
				t.Fatalf("after sweep: %+v, want 2 done, 0 leased, 2 pending", st)
			}
		})
	}
}

// TestReopenIdempotent reopens the same state twice: the second rebuild
// must land in exactly the same jobs and statuses as the first.
func TestReopenIdempotent(t *testing.T) {
	clk := newFakeClock()
	opts := durableOptions(t, clk, 6)
	q1 := mustOpen(t, opts)
	driveMixedWorkload(t, q1, clk)
	mustSubmit(t, q1, JobSpec{ID: "k", Experiments: []string{"all"}, Seed: 7})
	// Crash q1; open twice in sequence.
	view := func(q *Queue) (jobs []JobStatus, detail []JobStatus) {
		for _, s := range q.Jobs() {
			st, _ := q.Status(s.ID)
			jobs, detail = append(jobs, s), append(detail, st)
		}
		return jobs, detail
	}
	q2 := mustOpen(t, opts)
	jobs2, detail2 := view(q2)
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}
	jobs3, detail3 := view(mustOpen(t, opts))
	if len(jobs2) != 2 || !reflect.DeepEqual(jobs2, jobs3) || !reflect.DeepEqual(detail2, detail3) {
		t.Fatalf("second reopen diverged:\n first %+v\n%+v\nsecond %+v\n%+v", jobs2, detail2, jobs3, detail3)
	}
}

// TestJobLogTruncationEveryByte is the job log's analogue of the
// checkpoint crash test: a daemon killed mid-append leaves a torn final
// line, and a log cut at byte k must reopen to the jobs of its longest
// clean prefix, with the torn bytes cut off so the next append starts on
// a fresh line.
func TestJobLogTruncationEveryByte(t *testing.T) {
	clk := newFakeClock()
	opts := durableOptions(t, clk, 3)
	q := mustOpen(t, opts)
	for i, id := range []string{"a", "b", "c"} {
		mustSubmit(t, q, JobSpec{ID: id, Experiments: []string{"all"}, Seed: uint64(i)})
		l := mustAcquire(t, q, "w1")
		if err := q.Complete(l.Ref(), recFor(l)); err != nil {
			t.Fatal(err)
		}
	}
	logBytes, err := os.ReadFile(filepath.Join(opts.StateDir, "jobs.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(logBytes), "\n") != 3 || logBytes[len(logBytes)-1] != '\n' {
		t.Fatalf("job log malformed:\n%s", logBytes)
	}
	summary := func(q *Queue) []JobStatus {
		jobs := q.Jobs()
		for i := range jobs {
			jobs[i].RecordsPath = "" // differs between copies
		}
		return jobs
	}
	want := summary(mustOpen(t, opts))

	scratch := t.TempDir()
	for cut := 0; cut <= len(logBytes); cut++ {
		root := filepath.Join(scratch, fmt.Sprintf("cut-%04d", cut))
		cutOpts := opts
		cutOpts.DataDir = filepath.Join(root, "data")
		cutOpts.StateDir = filepath.Join(root, "state")
		copyTree(t, opts.DataDir, cutOpts.DataDir)
		if err := os.MkdirAll(cutOpts.StateDir, 0o755); err != nil {
			t.Fatal(err)
		}
		logPath := filepath.Join(cutOpts.StateDir, "jobs.jsonl")
		if err := os.WriteFile(logPath, logBytes[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := NewQueue(cutOpts)
		if err != nil {
			t.Fatalf("cut at byte %d: reopen failed: %v", cut, err)
		}
		clean := strings.LastIndexByte(string(logBytes[:cut]), '\n') + 1
		if got := summary(q); !reflect.DeepEqual(got, want[:strings.Count(string(logBytes[:clean]), "\n")]) {
			t.Fatalf("cut at byte %d: jobs %+v, want those of the %d-byte clean prefix", cut, got, clean)
		}
		if repaired, err := os.ReadFile(logPath); err != nil || len(repaired) != clean {
			t.Fatalf("cut at byte %d: log not repaired to its %d-byte clean prefix: %d bytes, %v", cut, clean, len(repaired), err)
		}
		if err := q.Close(); err != nil {
			t.Fatalf("cut at byte %d: close: %v", cut, err)
		}
		os.RemoveAll(root)
	}
}

// TestRecordCheckpointTruncationEveryByte is the service side of the
// checkpoint crash test: a daemon killed mid-append of a record leaves the
// job's records.jsonl torn. A queue reopened over the file cut at byte k
// must mark exactly the records of its clean prefix done, cut the torn
// bytes off, and drain to a file byte-identical to the uninterrupted one.
func TestRecordCheckpointTruncationEveryByte(t *testing.T) {
	const points = 4
	clk := newFakeClock()
	opts := durableOptions(t, clk, points)
	drain := func(q *Queue) {
		t.Helper()
		for {
			l, err := q.Acquire("w1")
			if err != nil {
				t.Fatal(err)
			}
			if l == nil {
				return
			}
			if err := q.Complete(l.Ref(), recFor(l)); err != nil {
				t.Fatal(err)
			}
		}
	}
	q := mustOpen(t, opts)
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 7})
	drain(q)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	rel := filepath.Join("j", "records.jsonl")
	full, err := os.ReadFile(filepath.Join(opts.DataDir, rel))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Count(string(full), "\n") != points || full[len(full)-1] != '\n' {
		t.Fatalf("records malformed:\n%s", full)
	}

	scratch := t.TempDir()
	for cut := 0; cut <= len(full); cut++ {
		root := filepath.Join(scratch, fmt.Sprintf("cut-%04d", cut))
		cutOpts := opts
		cutOpts.DataDir = filepath.Join(root, "data")
		cutOpts.StateDir = filepath.Join(root, "state")
		copyTree(t, opts.DataDir, cutOpts.DataDir)
		copyTree(t, opts.StateDir, cutOpts.StateDir)
		recPath := filepath.Join(cutOpts.DataDir, rel)
		if err := os.WriteFile(recPath, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := NewQueue(cutOpts)
		if err != nil {
			t.Fatalf("cut at byte %d: reopen failed: %v", cut, err)
		}
		clean := strings.LastIndexByte(string(full[:cut]), '\n') + 1
		done := strings.Count(string(full[:clean]), "\n")
		if st, _ := q.Status("j"); st.Done != done || st.Pending != points-done || st.Failed != 0 {
			t.Fatalf("cut at byte %d: restored %+v, want the %d records of the %d-byte clean prefix done", cut, st, done, clean)
		}
		if repaired, err := os.ReadFile(recPath); err != nil || !bytes.Equal(repaired, full[:clean]) {
			t.Fatalf("cut at byte %d: records not repaired to their %d-byte clean prefix: %d bytes, %v", cut, clean, len(repaired), err)
		}
		drain(q)
		if st, _ := q.Status("j"); st.State != "complete" || st.Done != points {
			t.Fatalf("cut at byte %d: drained to %+v, want complete", cut, st)
		}
		if err := q.Close(); err != nil {
			t.Fatalf("cut at byte %d: close: %v", cut, err)
		}
		if got, err := os.ReadFile(recPath); err != nil || !bytes.Equal(got, full) {
			t.Fatalf("cut at byte %d: drained records differ from the uninterrupted file (%v):\n%s", cut, err, got)
		}
		os.RemoveAll(root)
	}
}

// TestCorruptJobLineRefuses mirrors the checkpoint contract: a torn tail
// heals silently, but a corrupt line that IS newline-terminated was
// written whole and then damaged — the queue must refuse, not guess. A job
// logged twice is damage too.
func TestCorruptJobLineRefuses(t *testing.T) {
	for _, c := range []struct{ line, want string }{
		{"{broken json}\n", "not a torn tail"},
		{`{"id":"j","experiments":["all"],"seed":2}` + "\n", "already exists"},
	} {
		clk := newFakeClock()
		opts := durableOptions(t, clk, 4)
		mustSubmit(t, mustOpen(t, opts), JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 1})
		f, err := os.OpenFile(filepath.Join(opts.StateDir, "jobs.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteString(c.line); err != nil {
			t.Fatal(err)
		}
		f.Close()
		_, err = NewQueue(opts)
		if err == nil || !strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "jobs.jsonl line 2") {
			t.Errorf("job log line 2 %q: err=%v, want a refusal naming the damage (%s)", c.line, err, c.want)
		}
	}
}

// TestDegradedJobRestoresComplete: the manifest is the only durable record
// of a job's holes, so a degraded job that had completed restores as
// complete with the same holes, and nothing runs again.
func TestDegradedJobRestoresComplete(t *testing.T) {
	clk := newFakeClock()
	opts := durableOptions(t, clk, 3)
	opts.MaxAttempts = 1
	q1 := mustOpen(t, opts)
	mustSubmit(t, q1, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 5})
	for i := 0; i < 3; i++ {
		l := mustAcquire(t, q1, "w1")
		var err error
		if i == 1 {
			err = q1.Fail(l.Ref(), "poison point")
		} else {
			err = q1.Complete(l.Ref(), recFor(l))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	before, _ := q1.Status("j")
	manifest, _ := q1.ManifestOf("j")
	if before.State != "complete" || before.Failed != 1 {
		t.Fatalf("setup: %+v", before)
	}

	q := mustOpen(t, opts)
	after, _ := q.Status("j")
	if after.State != "complete" || after.Done != 2 || after.Failed != 1 || !reflect.DeepEqual(after.Failures, before.Failures) {
		t.Fatalf("restored %+v, want complete with the holes of %+v", after, before)
	}
	if m, _ := q.ManifestOf("j"); !reflect.DeepEqual(m, manifest) {
		t.Fatalf("restored manifest %+v, want %+v", m, manifest)
	}
	if l, err := q.Acquire("w2"); l != nil || err != nil {
		t.Fatalf("restored complete job handed out %+v, %v", l, err)
	}
	if n := sinkLines(t, q, "j"); n != 2 {
		t.Fatalf("checkpoint holds %d records, want 2", n)
	}
}

// TestAutoJobIDAfterRestart: an auto-assigned ID skips the restored jobs.
func TestAutoJobIDAfterRestart(t *testing.T) {
	clk := newFakeClock()
	opts := durableOptions(t, clk, 1)
	first := mustSubmit(t, mustOpen(t, opts), JobSpec{Experiments: []string{"all"}})
	q := mustOpen(t, opts)
	second := mustSubmit(t, q, JobSpec{Experiments: []string{"all"}})
	if second.ID == first.ID || len(q.Jobs()) != 2 {
		t.Fatalf("auto IDs %q then %q after restart; jobs %+v", first.ID, second.ID, q.Jobs())
	}
}

// TestCrashRecoveryFuzz drives randomised interleavings of lease grants,
// completions, failures, heartbeats, clock jumps, sweeps — and daemon
// crashes at random points between them — then finishes every campaign
// and checks the ground truth: the checkpoint holds exactly one record
// per non-failed point, each byte-identical to what an uninterrupted run
// produces. Crashes often fall on the same fake instant, so lease IDs
// repeat across incarnations. Run under -race in CI.
func TestCrashRecoveryFuzz(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clk := newFakeClock()
			opts := durableOptions(t, clk, 8)
			q := mustOpen(t, opts)
			spec := JobSpec{ID: "j", Experiments: []string{"all"}, Seed: uint64(seed)}
			mustSubmit(t, q, spec)

			workers := []string{"w0", "w1", "w2"}
			var held []*Lease
			crashes := 0
			var err error
			for step := 0; step < 60; step++ {
				switch rng.Intn(10) {
				case 0, 1, 2: // acquire
					l, err := q.Acquire(workers[rng.Intn(len(workers))])
					if err != nil {
						t.Fatalf("step %d: acquire: %v", step, err)
					}
					if l != nil {
						held = append(held, l)
					}
				case 3, 4: // complete a held lease (possibly stale — both legal)
					if len(held) > 0 {
						i := rng.Intn(len(held))
						l := held[i]
						held = append(held[:i], held[i+1:]...)
						if err := q.Complete(l.Ref(), recFor(l)); err != nil {
							t.Fatalf("step %d: complete %s: %v", step, l.Point.Key, err)
						}
					}
				case 5: // report a failure
					if len(held) > 0 {
						i := rng.Intn(len(held))
						l := held[i]
						held = append(held[:i], held[i+1:]...)
						if err := q.Fail(l.Ref(), "fuzz failure"); err != nil {
							t.Fatalf("step %d: fail %s: %v", step, l.Point.Key, err)
						}
					}
				case 6: // heartbeat with the leases the worker holds
					w := workers[rng.Intn(len(workers))]
					var ids []uint64
					for _, l := range held {
						if l.Worker == w {
							ids = append(ids, l.ID)
						}
					}
					if err := q.HeartbeatLeases(w, ids); err != nil {
						t.Fatal(err)
					}
				case 7: // time passes; sweeper runs
					clk.advance(time.Duration(rng.Intn(8000)) * time.Millisecond)
					q.Sweep()
				case 8, 9: // CRASH between any two transitions
					crashes++
					q, err = NewQueue(opts)
					if err != nil {
						t.Fatalf("step %d: recovery failed: %v", step, err)
					}
				}
			}
			if crashes == 0 {
				q = mustOpen(t, opts) // make every seed exercise recovery at least once
			}

			// Drain to completion: one diligent worker plus the sweeper.
			for i := 0; i < 1000; i++ {
				st, ok := q.Status("j")
				if !ok {
					t.Fatal("job lost")
				}
				if st.State == "complete" {
					break
				}
				l, err := q.Acquire("w0")
				if err != nil {
					t.Fatal(err)
				}
				if l != nil {
					if err := q.Complete(l.Ref(), recFor(l)); err != nil {
						t.Fatal(err)
					}
					continue
				}
				clk.advance(time.Second)
				q.Sweep()
				q.HeartbeatLeases("w0", nil) //nolint:errcheck
			}
			st, _ := q.Status("j")
			if st.State != "complete" {
				t.Fatalf("campaign never completed: %+v", st)
			}

			// Ground truth: merged records == uninterrupted run, no dups.
			m, _ := q.ManifestOf("j")
			failed := map[string]bool{}
			for _, f := range m.Failures {
				failed[f.Point.Campaign+"/"+f.Point.Key] = true
			}
			path, _ := q.RecordsPath("j")
			got := recordLines(t, path) // fails the test on duplicate keys
			pts, trials, _ := opts.Expand(spec)
			for _, pt := range pts {
				key := pt.Campaign + "/" + pt.Key
				if failed[key] {
					if _, ok := got[key]; ok {
						t.Errorf("failed point %s has a record anyway", key)
					}
					continue
				}
				exp, err := json.Marshal(recFor(&Lease{Point: pt, Spec: spec, Trials: trials}))
				if err != nil {
					t.Fatal(err)
				}
				if got[key] != string(exp) {
					t.Errorf("record %s differs from uninterrupted run:\n got %q\nwant %q", key, got[key], exp)
				}
				delete(got, key)
			}
			for key := range got {
				if !failed[key] {
					t.Errorf("unexpected extra record %s", key)
				}
			}
		})
	}
}

// FuzzRestoreJobs feeds arbitrary bytes to a queue as its job log: the
// queue opens or refuses with an error, never panics, and every job it
// restores has an ID that Submit would accept.
func FuzzRestoreJobs(f *testing.F) {
	f.Fuzz(func(t *testing.T, log []byte) {
		dir := t.TempDir() // data and state share it, as in campaignd
		if err := os.WriteFile(filepath.Join(dir, "jobs.jsonl"), log, 0o644); err != nil {
			t.Fatal(err)
		}
		clk := newFakeClock()
		q, err := NewQueue(Options{DataDir: dir, StateDir: dir, Expand: synthExpand(2), Now: clk.now})
		if err != nil {
			return
		}
		defer q.Close()
		for _, st := range q.Jobs() {
			if err := validateJobID(st.ID); err != nil {
				t.Errorf("restored job %q: %v", st.ID, err)
			}
		}
	})
}

// TestResumeUnderAnotherSeed resubmits a job with Resume under a new seed
// over a records.jsonl its first run wrote: once finished, and once after
// one point. None of the old records match the new seed, so the job drops
// them from its checkpoint before any append, reruns every point, and
// ends with records byte-identical to an uninterrupted run of the new seed.
func TestResumeUnderAnotherSeed(t *testing.T) {
	const points = 3
	clk := newFakeClock()
	drain := func(q *Queue, max int) {
		t.Helper()
		for i := 0; i < max; i++ {
			l, err := q.Acquire("w1")
			if err != nil {
				t.Fatal(err)
			}
			if l == nil {
				return
			}
			if err := q.Complete(l.Ref(), recFor(l)); err != nil {
				t.Fatal(err)
			}
		}
	}
	records := func(opts Options) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(opts.DataDir, "j", "records.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	freshOpts := testOptions(t, clk, points)
	q := mustOpen(t, freshOpts)
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 2})
	drain(q, points)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	want := records(freshOpts)

	for _, first := range []int{points, 1} {
		opts := testOptions(t, clk, points)
		q := mustOpen(t, opts)
		mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 1})
		drain(q, first)
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
		q = mustOpen(t, opts)
		if st := mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 2, Resume: true}); st.Done != 0 {
			t.Fatalf("seed-1 records after %d point(s): the seed-2 resume counts %d point(s) done", first, st.Done)
		}
		drain(q, points)
		if st, _ := q.Status("j"); st.State != "complete" || st.Done != points {
			t.Fatalf("seed-1 records after %d point(s): drained to %+v, want complete", first, st)
		}
		if err := q.Close(); err != nil {
			t.Fatal(err)
		}
		if got := records(opts); !bytes.Equal(got, want) {
			t.Fatalf("seed-1 records after %d point(s), resumed at seed 2:\n%s\nwant the uninterrupted seed-2 run:\n%s", first, got, want)
		}
	}
}
