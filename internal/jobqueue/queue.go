package jobqueue

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/campaign"
)

// taskState is the lifecycle of one grid point inside a job.
type taskState int

const (
	taskPending taskState = iota
	taskLeased
	taskDone
	taskFailed
)

// qtask is the queue's view of one grid point.
type qtask struct {
	ref       PointRef
	state     taskState
	attempts  int       // leases granted so far
	notBefore time.Time // backoff gate while pending
	lease     *qlease   // current grant while leased
	lastErr   string
}

// qlease is an outstanding grant.
type qlease struct {
	id       uint64
	job      *qjob
	task     *qtask
	worker   string
	attempt  int
	deadline time.Time
	started  time.Time
}

// qjob is one submitted campaign.
type qjob struct {
	spec     JobSpec
	trials   int
	tasks    []*qtask
	byRef    map[PointRef]*qtask
	done     int
	failed   int
	requeues int
	retries  int
	dups     int
	complete bool

	sink     *campaign.Sink
	sinkPath string
	manifest string

	// completion-duration accumulator for the ETA estimate.
	compDur time.Duration
	compN   int
}

// workerInfo tracks one registered (or implicitly seen) worker.
type workerInfo struct {
	lastSeen time.Time
	leases   map[uint64]*qlease
}

// Queue is the coordination core: jobs, their point tasks, outstanding
// leases, and worker liveness. All methods are safe for concurrent use.
type Queue struct {
	mu      sync.Mutex
	opts    Options
	jobs    map[string]*qjob
	order   []string // submission order, for fair round-robin dispatch
	rr      int      // last job index served by Acquire
	workers map[string]*workerInfo
	leases  map[uint64]*qlease // current grants only
	nextID  uint64
	autoJob int

	// jobLog is StateDir/jobs.jsonl open for appends; nil when
	// Options.StateDir is empty.
	jobLog   *campaign.Sink
	draining bool
}

// NewQueue builds a queue rooted at opts.DataDir, applying defaults.
func NewQueue(opts Options) (*Queue, error) {
	if opts.DataDir == "" {
		return nil, fmt.Errorf("jobqueue: Options.DataDir is required")
	}
	if opts.Expand == nil {
		return nil, fmt.Errorf("jobqueue: Options.Expand is required")
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 30 * time.Second
	}
	if opts.HeartbeatTimeout <= 0 {
		opts.HeartbeatTimeout = opts.LeaseTTL * 3 / 4
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = 4
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 250 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 30 * time.Second
	}
	if opts.Jitter == nil {
		opts.Jitter = rand.Float64
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, fmt.Errorf("jobqueue: create data dir: %w", err)
	}
	q := &Queue{
		opts:    opts,
		jobs:    map[string]*qjob{},
		workers: map[string]*workerInfo{},
		leases:  map[uint64]*qlease{},
		// Leases do not survive a restart, so lease IDs start at the open
		// time: they must not repeat across incarnations.
		nextID: uint64(opts.Now().UnixNano()),
	}
	if opts.StateDir != "" {
		if err := q.restoreJobs(); err != nil {
			q.Close() //nolint:errcheck // the restore error is the one to report
			return nil, err
		}
	}
	return q, nil
}

// restoreJobs rebuilds every job in StateDir/jobs.jsonl the way a Resume
// submit would, then opens the log for appends (so the rebuilt jobs are
// not logged again). A torn final line (a Submit killed mid-append, never
// acknowledged) is cut off; a corrupt newline-terminated line refuses.
func (q *Queue) restoreJobs() error {
	if err := os.MkdirAll(q.opts.StateDir, 0o755); err != nil {
		return fmt.Errorf("jobqueue: create state dir: %w", err)
	}
	path := filepath.Join(q.opts.StateDir, "jobs.jsonl")
	rep, err := campaign.RepairJSONL(path, func(line []byte) error {
		var spec JobSpec
		if err := json.Unmarshal(line, &spec); err != nil {
			return fmt.Errorf("corrupt job spec (not a torn tail — the line is newline-terminated): %w", err)
		}
		_, err := q.addJob(spec, true)
		return err
	})
	if err != nil {
		return fmt.Errorf("jobqueue: restore jobs: %w", err)
	}
	if rep.TornTailBytes > 0 {
		q.logf("state: dropped torn %d-byte tail of %s", rep.TornTailBytes, path)
	}
	if len(q.jobs) > 0 {
		q.logf("state: restored %d job(s) from %s", len(q.jobs), path)
	}
	q.jobLog, err = campaign.OpenSink(path, false)
	if err != nil {
		return fmt.Errorf("jobqueue: open job log: %w", err)
	}
	return nil
}

func (q *Queue) logf(format string, args ...any) {
	if q.opts.Log != nil {
		q.opts.Log(format, args...)
	}
}

// Submit validates and enqueues a campaign. With spec.Resume, records
// already present in the job's checkpoint (matching seed, scale and trial
// count) mark their points done without re-running; otherwise a non-empty
// checkpoint is refused so prior work is never clobbered silently.
func (q *Queue) Submit(spec JobSpec) (JobStatus, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for spec.ID == "" {
		q.autoJob++
		if id := fmt.Sprintf("job-%03d", q.autoJob); q.jobs[id] == nil {
			spec.ID = id
		}
	}
	j, err := q.addJob(spec, spec.Resume)
	if err != nil {
		return JobStatus{}, err
	}
	q.logf("job %s: submitted, %d points (%d resumed)", spec.ID, len(j.tasks), j.done)
	return q.status(j, false), nil
}

// addJob validates and expands spec, opens its checkpoint, logs the spec
// and enqueues the job. With resume, recorded points are done and the
// failures in an existing manifest stay failed; a fully resumed job is
// complete on arrival.
func (q *Queue) addJob(spec JobSpec, resume bool) (*qjob, error) {
	if err := validateJobID(spec.ID); err != nil {
		return nil, err
	}
	if _, dup := q.jobs[spec.ID]; dup {
		return nil, fmt.Errorf("jobqueue: job %q already exists", spec.ID)
	}
	points, trials, err := q.opts.Expand(spec)
	if err != nil {
		return nil, err
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("jobqueue: job %q expands to zero grid points", spec.ID)
	}

	dir := filepath.Join(q.opts.DataDir, spec.ID)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobqueue: create job dir: %w", err)
	}
	j := &qjob{
		spec:     spec,
		trials:   trials,
		byRef:    map[PointRef]*qtask{},
		sinkPath: filepath.Join(dir, "records.jsonl"),
		manifest: filepath.Join(dir, "manifest.json"),
	}
	for _, ref := range points {
		if _, dup := j.byRef[ref]; dup {
			return nil, fmt.Errorf("jobqueue: job %q: duplicate point %s/%s", spec.ID, ref.Campaign, ref.Key)
		}
		t := &qtask{ref: ref}
		j.byRef[ref] = t
		j.tasks = append(j.tasks, t)
	}

	// With resume, a manifest's failures stay failed. It is read before the
	// checkpoint opens, so that a refusal here leaves no sink open.
	var m Manifest
	if resume {
		data, err := os.ReadFile(j.manifest)
		if err == nil {
			err = json.Unmarshal(data, &m)
		}
		if err != nil && !os.IsNotExist(err) {
			return nil, fmt.Errorf("jobqueue: resume job %q: read manifest: %w", spec.ID, err)
		}
	}
	// A record of one of the job's points stays only if the job may reuse
	// it; OpenCheckpoint drops the rest before anything is appended.
	keep := func(r *campaign.Record) bool {
		return j.byRef[PointRef{Campaign: r.Campaign, Key: r.Point}] == nil ||
			r.Matches(r.Campaign, r.Point, spec.Seed, spec.Full, trials)
	}
	sink, rs, rep, err := campaign.OpenCheckpoint(j.sinkPath, resume, keep)
	if err != nil {
		return nil, fmt.Errorf("jobqueue: job %q: %w", spec.ID, err)
	}
	if rep.TornTailBytes > 0 {
		q.logf("job %s: dropped torn %d-byte checkpoint tail on resume", spec.ID, rep.TornTailBytes)
	}
	if rep.Dropped > 0 {
		q.logf("job %s: dropped %d checkpoint record(s) of another seed, scale or trial count on resume", spec.ID, rep.Dropped)
	}
	for _, t := range j.tasks {
		if _, ok := rs.Lookup(t.ref.Campaign, t.ref.Key); ok {
			t.state = taskDone
			j.done++
		}
	}
	for _, f := range m.Failures {
		// The holes of a manifest written for another seed or scale do not
		// carry over, and a point recorded since stays done.
		if t := j.byRef[f.Point]; t != nil && t.state == taskPending && m.Spec.Seed == spec.Seed && m.Spec.Full == spec.Full {
			t.state, t.attempts, t.lastErr = taskFailed, f.Attempts, f.LastErr
			j.failed++
		}
	}
	if err := q.logJob(spec); err != nil {
		sink.Close() //nolint:errcheck // the log error is the one to report
		return nil, err
	}
	j.sink = sink
	q.jobs[spec.ID] = j
	q.order = append(q.order, spec.ID)
	q.maybeFinish(j)
	return j, nil
}

// logJob appends the accepted spec to the job log as one fsync'd line
// (no-op without a StateDir). A failed append is cut back off, so it
// cannot bring back a refused submission.
func (q *Queue) logJob(spec JobSpec) error {
	if q.jobLog == nil {
		return nil
	}
	if err := q.jobLog.Append(spec); err != nil {
		return fmt.Errorf("jobqueue: log job %q: %w", spec.ID, err)
	}
	return nil
}

// RegisterWorker announces a worker. Registration is advisory — an unknown
// worker acquiring a lease is registered implicitly — but lets /healthz
// and the status endpoints report fleet size before any lease is taken.
func (q *Queue) RegisterWorker(id string) error {
	if id == "" {
		return fmt.Errorf("jobqueue: empty worker id")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	q.touchWorker(id)
	return nil
}

func (q *Queue) touchWorker(id string) *workerInfo {
	w := q.workers[id]
	if w == nil {
		w = &workerInfo{leases: map[uint64]*qlease{}}
		q.workers[id] = w
	}
	w.lastSeen = q.opts.Now()
	return w
}

// HeartbeatLeases marks the worker live and renews exactly the leases it
// reports holding; with none listed it only marks the worker live. A
// lease the daemon granted but the worker never heard of is deliberately
// NOT renewed: it runs out its absolute deadline and the sweeper requeues
// the point.
func (q *Queue) HeartbeatLeases(workerID string, held []uint64) error {
	if workerID == "" {
		return fmt.Errorf("jobqueue: empty worker id")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	w := q.touchWorker(workerID)
	for _, id := range held {
		if l, ok := w.leases[id]; ok {
			l.deadline = w.lastSeen.Add(q.opts.LeaseTTL)
		}
	}
	return nil
}

// Acquire grants the next available point to the worker, round-robin
// across jobs (fair multi-tenancy) and grid-order within a job. Returns
// (nil, nil) when nothing is currently runnable — all points done, leased
// out, or waiting out a backoff.
func (q *Queue) Acquire(workerID string) (*Lease, error) {
	if workerID == "" {
		return nil, fmt.Errorf("jobqueue: empty worker id")
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	w := q.touchWorker(workerID)
	if q.draining {
		return nil, nil // shutting down: let in-flight work finish, grant nothing new
	}
	now := w.lastSeen
	for i := 1; i <= len(q.order); i++ {
		j := q.jobs[q.order[(q.rr+i)%len(q.order)]]
		if j.complete {
			continue
		}
		for _, t := range j.tasks {
			if t.state != taskPending || t.notBefore.After(now) {
				continue
			}
			q.rr = (q.rr + i) % len(q.order)
			t.state = taskLeased
			t.attempts++
			q.nextID++
			l := &qlease{
				id:       q.nextID,
				job:      j,
				task:     t,
				worker:   workerID,
				attempt:  t.attempts,
				deadline: now.Add(q.opts.LeaseTTL),
				started:  now,
			}
			t.lease = l
			q.leases[l.id] = l
			w.leases[l.id] = l
			return &Lease{
				ID:       l.id,
				Job:      j.spec.ID,
				Point:    t.ref,
				Spec:     j.spec,
				Trials:   j.trials,
				Attempt:  l.attempt,
				Worker:   workerID,
				Deadline: l.deadline,
			}, nil
		}
	}
	return nil, nil
}

// Complete records a finished point. Stale leases are accepted — a worker
// that lost its lease to expiry or to a daemon restart but finished anyway
// delivers a record that is bit-identical by seed purity, and the first
// valid completion wins. Duplicate completions of an already-done point
// are discarded and counted. A record that does not match the lease's
// point and spec consumes an attempt like a reported failure: the worker
// is evidently not computing what it was asked. Only the point's own
// lease is ever released: a stale ref.ID may since have been granted for
// another point.
func (q *Queue) Complete(ref LeaseRef, rec *campaign.Record) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if ref.Worker != "" {
		q.touchWorker(ref.Worker)
	}
	j, ok := q.jobs[ref.Job]
	if !ok {
		return fmt.Errorf("jobqueue: unknown job %q", ref.Job)
	}
	t, ok := j.byRef[ref.Point]
	if !ok {
		return fmt.Errorf("jobqueue: job %q has no point %s/%s", ref.Job, ref.Point.Campaign, ref.Point.Key)
	}
	if rec == nil {
		return fmt.Errorf("jobqueue: completion without a record")
	}
	if !rec.Matches(t.ref.Campaign, t.ref.Key, j.spec.Seed, j.spec.Full, j.trials) {
		// Only the holder of the task's current lease can burn an attempt;
		// a stale mismatch is simply dropped.
		if t.lease != nil && t.lease.id == ref.ID {
			j.retries++
			q.failLocked(j, t, fmt.Sprintf("record mismatch: got %s/%s seed=%d full=%v trials=%d",
				rec.Campaign, rec.Point, rec.Seed, rec.Full, rec.Trials))
		}
		return fmt.Errorf("jobqueue: record does not match lease for %s/%s", ref.Point.Campaign, ref.Point.Key)
	}
	if j.complete || t.state == taskDone {
		j.dups++
		q.logf("job %s: duplicate completion of %s/%s discarded", j.spec.ID, t.ref.Campaign, t.ref.Key)
		return nil
	}
	if l := t.lease; l != nil && l.id == ref.ID {
		j.compDur += q.opts.Now().Sub(l.started)
		j.compN++
	}
	if t.state == taskFailed {
		// A straggler delivered the record after the attempt budget wrote
		// the point off — take it, the hole heals.
		j.failed--
		q.logf("job %s: late completion filled failed point %s/%s", j.spec.ID, t.ref.Campaign, t.ref.Key)
	}
	q.dropTaskLease(t)
	if err := j.sink.Append(rec); err != nil {
		// Sink failure is a daemon-side storage problem, not the worker's:
		// leave the task pending so the record is recomputed and appended
		// once storage recovers.
		t.state = taskPending
		t.notBefore = q.opts.Now().Add(q.backoff(t.attempts))
		return fmt.Errorf("jobqueue: append record: %w", err)
	}
	t.state = taskDone
	t.lastErr = ""
	j.done++
	q.maybeFinish(j)
	return nil
}

// Fail records a reported point failure from the task's current lease
// holder: retry after backoff, or land the point in the failure manifest
// once the attempt budget is spent. Stale reports (the lease was already
// requeued or resolved, or was granted by an earlier incarnation) are
// ignored and release nothing.
func (q *Queue) Fail(ref LeaseRef, msg string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if ref.Worker != "" {
		q.touchWorker(ref.Worker)
	}
	j, ok := q.jobs[ref.Job]
	if !ok {
		return fmt.Errorf("jobqueue: unknown job %q", ref.Job)
	}
	t, ok := j.byRef[ref.Point]
	if !ok {
		return fmt.Errorf("jobqueue: job %q has no point %s/%s", ref.Job, ref.Point.Campaign, ref.Point.Key)
	}
	if t.lease == nil || t.lease.id != ref.ID || t.state != taskLeased {
		return nil // stale: the point moved on without this worker
	}
	j.retries++
	q.failLocked(j, t, msg)
	return nil
}

// failLocked applies failure bookkeeping to a leased task and releases its
// lease (caller holds the lock).
func (q *Queue) failLocked(j *qjob, t *qtask, msg string) {
	q.dropTaskLease(t)
	t.lastErr = msg
	if t.attempts >= q.opts.MaxAttempts {
		t.state = taskFailed
		j.failed++
		q.logf("job %s: point %s/%s exhausted %d attempts: %s", j.spec.ID, t.ref.Campaign, t.ref.Key, t.attempts, msg)
		q.maybeFinish(j)
		return
	}
	d := q.backoff(t.attempts)
	t.state = taskPending
	t.notBefore = q.opts.Now().Add(d)
	q.logf("job %s: point %s/%s attempt %d failed (%s); retrying in %v", j.spec.ID, t.ref.Campaign, t.ref.Key, t.attempts, msg, d)
}

// backoff returns the delay before the next grant after `attempts` granted
// attempts, via the shared BackoffPolicy shape: uniform in [d/2, d) for
// d = min(base·2^(attempts-1), max). Reads opts at call time so tests can
// swap the jitter after construction.
func (q *Queue) backoff(attempts int) time.Duration {
	return BackoffPolicy{Base: q.opts.BackoffBase, Max: q.opts.BackoffMax, Jitter: q.opts.Jitter}.Delay(attempts)
}

// dropTaskLease detaches the task's current lease, if any.
func (q *Queue) dropTaskLease(t *qtask) {
	if t.lease != nil {
		q.releaseLease(t.lease.id)
	}
}

// releaseLease removes a lease from the queue- and worker-level indices.
func (q *Queue) releaseLease(id uint64) {
	l, ok := q.leases[id]
	if !ok {
		return
	}
	delete(q.leases, id)
	if w := q.workers[l.worker]; w != nil {
		delete(w.leases, id)
	}
	if l.task.lease == l {
		l.task.lease = nil
	}
}

// Sweep requeues the points of expired leases and of workers that missed
// their heartbeat window. The daemon calls it on a ticker; tests call it
// directly against an injected clock. Returns the number of requeued
// leases.
func (q *Queue) Sweep() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opts.Now()
	var victims []*qlease
	for _, l := range q.leases {
		if now.After(l.deadline) {
			victims = append(victims, l)
			continue
		}
		if w := q.workers[l.worker]; w != nil && now.Sub(w.lastSeen) > q.opts.HeartbeatTimeout {
			victims = append(victims, l)
		}
	}
	// Deterministic processing order (map iteration is randomised).
	sort.Slice(victims, func(i, j int) bool { return victims[i].id < victims[j].id })
	for _, l := range victims {
		t, j := l.task, l.job
		reason := fmt.Sprintf("worker %s missed heartbeat", l.worker)
		if now.After(l.deadline) {
			reason = fmt.Sprintf("lease expired (worker %s)", l.worker)
		}
		q.releaseLease(l.id)
		if t.state != taskLeased {
			continue
		}
		j.requeues++
		t.lastErr = reason
		if t.attempts >= q.opts.MaxAttempts {
			t.state = taskFailed
			j.failed++
			q.logf("job %s: point %s/%s exhausted %d attempts: %s", j.spec.ID, t.ref.Campaign, t.ref.Key, t.attempts, reason)
			q.maybeFinish(j)
			continue
		}
		// Requeue immediately: the point is presumed fine, the worker dead.
		t.state = taskPending
		t.notBefore = now
		q.logf("job %s: requeued %s/%s (%s, attempt %d)", j.spec.ID, t.ref.Campaign, t.ref.Key, reason, t.attempts)
	}
	return len(victims)
}

// maybeFinish finalises a job whose every point is done or failed: closes
// the sink and writes the failure manifest (caller holds the lock). The
// manifest is the only durable record of the job's holes, so it is
// fsync'd before it replaces any earlier one.
func (q *Queue) maybeFinish(j *qjob) {
	if j.complete || j.done+j.failed < len(j.tasks) {
		return
	}
	j.complete = true
	if j.sink != nil {
		if err := j.sink.Close(); err != nil {
			q.logf("job %s: close sink: %v", j.spec.ID, err)
		}
		j.sink = nil
	}
	m := Manifest{Job: j.spec.ID, Spec: j.spec, Total: len(j.tasks), Done: j.done, Failed: j.failed,
		Failures: j.failures()}
	if m.Failures == nil {
		m.Failures = []FailureEntry{}
	}
	data, err := json.MarshalIndent(m, "", "  ")
	if err == nil {
		err = campaign.ReplaceFile(j.manifest, append(data, '\n'))
	}
	if err != nil {
		q.logf("job %s: write manifest: %v", j.spec.ID, err)
	}
	q.logf("job %s: complete (%d done, %d failed)", j.spec.ID, j.done, j.failed)
}

// failures lists the exhausted points in grid order.
func (j *qjob) failures() []FailureEntry {
	var out []FailureEntry
	for _, t := range j.tasks {
		if t.state == taskFailed {
			out = append(out, FailureEntry{Point: t.ref, Attempts: t.attempts, LastErr: t.lastErr})
		}
	}
	return out
}

// Status reports one job's progress, including outstanding leases and the
// current failure list.
func (q *Queue) Status(jobID string) (JobStatus, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[jobID]
	if !ok {
		return JobStatus{}, false
	}
	return q.status(j, true), true
}

// Jobs lists every job in submission order (summary form).
func (q *Queue) Jobs() []JobStatus {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]JobStatus, 0, len(q.order))
	for _, id := range q.order {
		out = append(out, q.status(q.jobs[id], false))
	}
	return out
}

// status builds a JobStatus (caller holds the lock).
func (q *Queue) status(j *qjob, detail bool) JobStatus {
	s := JobStatus{
		ID: j.spec.ID, Spec: j.spec, State: "running",
		Total: len(j.tasks), Done: j.done, Failed: j.failed,
		Requeues: j.requeues, Retries: j.retries, Duplicates: j.dups,
		RecordsPath: j.sinkPath,
	}
	if j.complete {
		s.State = "complete"
	}
	now := q.opts.Now()
	for _, t := range j.tasks {
		switch t.state {
		case taskPending:
			s.Pending++
		case taskLeased:
			s.Leased++
			if detail && t.lease != nil {
				s.Leases = append(s.Leases, LeaseInfo{Point: t.ref, Worker: t.lease.worker,
					Attempt: t.lease.attempt, Deadline: t.lease.deadline})
			}
		}
	}
	if detail {
		s.Failures = j.failures()
	}
	if remaining := s.Pending + s.Leased; remaining > 0 && j.compN > 0 {
		live := 0
		for _, w := range q.workers {
			if now.Sub(w.lastSeen) <= q.opts.HeartbeatTimeout {
				live++
			}
		}
		if live < 1 {
			live = 1
		}
		mean := j.compDur / time.Duration(j.compN)
		s.ETASeconds = (time.Duration(remaining) * mean / time.Duration(live)).Seconds()
	}
	return s
}

// Healthz summarises daemon liveness for the /healthz endpoint.
func (q *Queue) Healthz() Health {
	q.mu.Lock()
	defer q.mu.Unlock()
	h := Health{Status: "ok", Jobs: len(q.jobs), Workers: len(q.workers)}
	if q.draining {
		h.Status = "draining"
	}
	for _, j := range q.jobs {
		if !j.complete {
			h.RunningJobs++
		}
	}
	now := q.opts.Now()
	for _, w := range q.workers {
		if now.Sub(w.lastSeen) <= q.opts.HeartbeatTimeout {
			h.LiveWorkers++
		}
	}
	return h
}

// RecordsPath returns the job's JSONL checkpoint path.
func (q *Queue) RecordsPath(jobID string) (string, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[jobID]
	if !ok {
		return "", false
	}
	return j.sinkPath, true
}

// ManifestOf returns the job's current (or final) failure manifest.
func (q *Queue) ManifestOf(jobID string) (Manifest, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[jobID]
	if !ok {
		return Manifest{}, false
	}
	m := Manifest{Job: j.spec.ID, Spec: j.spec, Total: len(j.tasks), Done: j.done, Failed: j.failed,
		Failures: j.failures()}
	if m.Failures == nil {
		m.Failures = []FailureEntry{}
	}
	return m, true
}

// Drain stops granting new leases (Acquire answers "nothing runnable")
// while completions, failures and heartbeats keep flowing — the first
// phase of a graceful shutdown. Healthz reports "draining".
func (q *Queue) Drain() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.draining = true
	q.logf("state: draining — no new leases will be granted")
}

// Close closes the queue's files (daemon shutdown) and marks incomplete
// jobs complete as it closes their sinks. A queue reopened over the same
// StateDir rebuilds them from their records; without one, a restarted
// daemon resubmits with Resume to continue.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	var first error
	if q.jobLog != nil {
		first = q.jobLog.Close()
		q.jobLog = nil
	}
	for _, j := range q.jobs {
		if !j.complete && j.sink != nil {
			if err := j.sink.Close(); err != nil && first == nil {
				first = err
			}
			j.sink = nil
			j.complete = true
		}
	}
	return first
}
