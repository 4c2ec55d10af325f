// Package jobqueue is the fault-tolerant execution layer of the campaign
// service: a lease-based work queue (campaignd holds it behind an HTTP/JSON
// API) that dispatches grid points to a fleet of worker processes and keeps
// a campaign's record stream correct when those workers are slow, flaky, or
// die mid-point.
//
// The design is fault-first:
//
//   - Dispatch is pull-based (work stealing): every worker asks for its next
//     point when it is ready, so a fast worker simply acquires more leases
//     than a slow one and heterogeneous fleets balance themselves.
//   - A point is handed out under a Lease with a deadline. Worker heartbeats
//     carry the worker's own list of held leases and renew exactly those, so
//     a lease whose grant response was lost in transit expires on schedule
//     instead of being renewed forever; a worker that dies (missed
//     heartbeat) or wedges (expired deadline) has its points requeued for
//     someone else.
//   - A reported point failure is retried with exponential backoff plus
//     jitter up to a bounded attempt budget. When the budget is exhausted
//     the point lands in the job's failure manifest and the campaign
//     completes with explicit holes instead of hanging.
//   - Because every point runs on the job's base seed (see package
//     campaign), a retried or stolen point recomputes the exact record its
//     first attempt would have produced — duplicate completions are
//     discarded, and the merged record stream of any chaotic execution
//     equals an unsharded single-process run record for record.
//
// Records stream through the campaign engine's checkpoint machinery: each
// job owns a namespaced directory (dataDir/<jobID>/) holding its
// append-only JSONL record file and its failure manifest. The record file
// is opened by campaign.OpenCheckpoint, so it is refused, repaired and
// resumed as a campaign.Run checkpoint is, and campaign.Record.Matches
// decides which records count for a point, at resume and at completion.
//
// The queue is durable when Options.StateDir is set: Submit acknowledges a
// job only once its spec is an fsync'd line of StateDir/jobs.jsonl, as
// Complete acknowledges a point only once its record is an fsync'd line
// of records.jsonl. A queue reopened over the same directories, after a
// SIGKILL included, rebuilds every logged job as a Resume submit would.
// A logged spec that no longer expands refuses the restore, and NewQueue
// returns the error: an experiment ID, graph mode or channel the Expander
// does not know is one.
// A restart keeps jobs, records and manifest holes. It resets leases,
// attempt counts, backoff gates, the requeue, retry and duplicate
// counters, and the ETA: points in flight run again, and a poison point
// can get MaxAttempts more tries per crash.
//
// The package is layered so the whole service can be exercised in-process:
// Queue (this file and queue.go) is the pure coordination core with an
// injectable clock; Server (server.go) exposes it over HTTP; Client
// (client.go) speaks that API; RunWorker (worker.go) is the worker loop the
// campaignworker binary wraps, with chaos hooks for fault-injection tests.
package jobqueue

import (
	"fmt"
	"regexp"
	"time"
)

// JobSpec is a submitted campaign: which experiments to run, at what scale
// and seed, and under which job identity. It is the wire format of
// POST /api/v1/campaigns.
type JobSpec struct {
	// ID names the job and its checkpoint namespace (dataDir/<ID>/). Optional
	// on submit: the daemon assigns job-NNN when empty. Must match [A-Za-z0-9._-]+
	// (it becomes a directory name).
	ID string `json:"id,omitempty"`
	// Experiments lists expt registry IDs ("E1", "F2", ...); the single
	// element "all" selects every registered experiment.
	Experiments []string `json:"experiments"`
	// Full selects the paper-scale grid; false the reduced grid.
	Full bool `json:"full,omitempty"`
	// Seed is the campaign base seed (campaign.Config.Seed).
	Seed uint64 `json:"seed"`
	// Workers bounds per-point trial parallelism on the worker that runs the
	// point (campaign.Config.Workers; 0 = GOMAXPROCS).
	Workers int `json:"workers,omitempty"`
	// GraphMode restricts graph-representation axes (campaign.Config
	// .GraphMode): "", "csr", or "implicit". "implicit" lets campaignd
	// dispatch planet-scale generate-free points to small workers.
	GraphMode string `json:"graph_mode,omitempty"`
	// Channel restricts channel-model axes (campaign.Config.Channel): "",
	// "binary", "fade", or "duty" — one worker can run one channel leg of
	// the channel-realism comparison grid.
	Channel string `json:"channel,omitempty"`
	// Resume continues a previous job with the same ID: points whose records
	// already sit in the job's checkpoint are marked done without re-running,
	// and the holes of its manifest stay failed (remove manifest.json to
	// retry them). Without Resume, submitting over a non-empty checkpoint is
	// refused.
	Resume bool `json:"resume,omitempty"`
}

// PointRef identifies one grid point globally: the campaign (experiment) ID
// it belongs to plus its stable point key.
type PointRef struct {
	Campaign string `json:"campaign"`
	Key      string `json:"key"`
}

// Lease is one granted work assignment: run this point under this spec and
// report back before the deadline (heartbeats extend it).
type Lease struct {
	// ID is unique per grant; a requeued point gets a fresh lease ID.
	ID     uint64   `json:"id"`
	Job    string   `json:"job"`
	Point  PointRef `json:"point"`
	Spec   JobSpec  `json:"spec"`
	Trials int      `json:"trials"`
	// Attempt is 1 for the first grant of a point and increments on every
	// retry or requeue.
	Attempt  int       `json:"attempt"`
	Worker   string    `json:"worker"`
	Deadline time.Time `json:"deadline"`
}

// Ref returns the compact identity a worker reports completions and
// failures under.
func (l *Lease) Ref() LeaseRef {
	return LeaseRef{ID: l.ID, Job: l.Job, Point: l.Point, Worker: l.Worker}
}

// LeaseRef identifies a lease in complete/fail reports. The queue accepts
// reports from stale leases too (a worker that lost its lease to expiry but
// finished anyway): the record is bit-identical by seed purity, so the
// first completion wins whoever delivers it.
type LeaseRef struct {
	ID     uint64   `json:"id"`
	Job    string   `json:"job"`
	Point  PointRef `json:"point"`
	Worker string   `json:"worker"`
}

// FailureEntry is one exhausted point in a job's failure manifest.
type FailureEntry struct {
	Point    PointRef `json:"point"`
	Attempts int      `json:"attempts"`
	LastErr  string   `json:"last_error"`
}

// Manifest is the failure manifest written to dataDir/<jobID>/manifest.json
// when a job finishes: the explicit holes of a gracefully degraded
// campaign (empty Failures for a fully successful one).
type Manifest struct {
	Job      string         `json:"job"`
	Spec     JobSpec        `json:"spec"`
	Total    int            `json:"total"`
	Done     int            `json:"done"`
	Failed   int            `json:"failed"`
	Failures []FailureEntry `json:"failures"`
}

// LeaseInfo describes one outstanding lease in a job status report.
type LeaseInfo struct {
	Point    PointRef  `json:"point"`
	Worker   string    `json:"worker"`
	Attempt  int       `json:"attempt"`
	Deadline time.Time `json:"deadline"`
}

// JobStatus is the live progress report of one job
// (GET /api/v1/campaigns/{id}).
type JobStatus struct {
	ID    string  `json:"id"`
	State string  `json:"state"` // "running" or "complete"
	Spec  JobSpec `json:"spec"`

	Total   int `json:"total"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`

	// Requeues counts leases taken back (deadline expiry or missed
	// heartbeat); Retries counts reported point failures; Duplicates counts
	// discarded duplicate completions (a stolen point finishing twice).
	Requeues   int `json:"requeues"`
	Retries    int `json:"retries"`
	Duplicates int `json:"duplicates"`

	// ETASeconds estimates the remaining wall time from the mean lease
	// duration of completed points and the number of live workers
	// (0 when unknown or complete).
	ETASeconds float64 `json:"eta_seconds"`

	Leases   []LeaseInfo    `json:"leases,omitempty"`
	Failures []FailureEntry `json:"failures,omitempty"`

	// RecordsPath is the job's JSONL checkpoint inside the daemon's data
	// directory.
	RecordsPath string `json:"records_path"`
}

// Health is the /healthz payload.
type Health struct {
	Status      string `json:"status"`
	Jobs        int    `json:"jobs"`
	RunningJobs int    `json:"running_jobs"`
	Workers     int    `json:"workers"`
	LiveWorkers int    `json:"live_workers"`
}

// Expander turns a validated job spec into its grid points plus the
// per-point trial count stamped into records. Implementations must be
// deterministic in the spec (the worker re-derives the same enumeration
// from its own registry). exptrun.Expand is the expt-registry
// implementation; tests supply synthetic grids.
type Expander func(spec JobSpec) (points []PointRef, trials int, err error)

// Options configures a Queue. Zero values select the documented defaults.
type Options struct {
	// DataDir is the root of the per-job checkpoint namespaces (required).
	DataDir string
	// Expand turns submitted specs into grid points (required).
	Expand Expander

	// StateDir, when set, makes the queue durable: accepted specs are
	// logged to StateDir/jobs.jsonl and rebuilt on reopen (see the package
	// doc). Empty means the job list lives and dies with the process.
	StateDir string

	// LeaseTTL is how long a lease lives without a heartbeat (default 30s).
	LeaseTTL time.Duration
	// HeartbeatTimeout declares a worker lost when it has not been heard
	// from for this long, requeueing all its leases even before their
	// deadlines (default 3/4 of LeaseTTL).
	HeartbeatTimeout time.Duration
	// MaxAttempts bounds grants per point — first try, retries, and
	// requeues after worker death all count (default 4).
	MaxAttempts int
	// BackoffBase/BackoffMax shape the retry delay after a reported
	// failure: attempt k waits uniformly in [d/2, d) for
	// d = min(BackoffBase·2^(k-1), BackoffMax) (defaults 250ms / 30s).
	// Requeues after lease expiry retry immediately — the point is
	// presumed fine, the worker dead.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Jitter returns a uniform draw in [0,1) for backoff spreading
	// (default math/rand; injectable for deterministic tests).
	Jitter func() float64
	// Now is the clock (default time.Now; injectable for expiry tests).
	Now func() time.Time
	// Log, when non-nil, receives one line per notable queue event
	// (requeue, retry, exhausted point, duplicate completion).
	Log func(format string, args ...any)
}

var jobIDPattern = regexp.MustCompile(`^[A-Za-z0-9._-]+$`)

// validateJobID rejects IDs that cannot serve as a checkpoint directory
// name ("." and ".." included).
func validateJobID(id string) error {
	if !jobIDPattern.MatchString(id) || id == "." || id == ".." {
		return fmt.Errorf("jobqueue: invalid job id %q (want [A-Za-z0-9._-]+)", id)
	}
	return nil
}
