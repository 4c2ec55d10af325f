package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/campaign"
)

// Runner executes one leased grid point and returns its record. It must be
// a pure function of the lease (spec, point, trials): the record of a
// retried or stolen point has to be bit-identical to its first attempt.
// exptrun.Runner is the expt-registry implementation.
type Runner interface {
	RunPoint(l *Lease) (*campaign.Record, error)
}

// RunnerFunc adapts a function to the Runner interface.
type RunnerFunc func(l *Lease) (*campaign.Record, error)

// RunPoint implements Runner.
func (f RunnerFunc) RunPoint(l *Lease) (*campaign.Record, error) { return f(l) }

// ErrChaosKill is returned by RunWorker when the kill-after-points chaos
// trigger fired: the worker abandoned a held lease without reporting —
// indistinguishable, from the daemon's side, from a SIGKILL mid-point.
var ErrChaosKill = errors.New("jobqueue: chaos kill triggered")

// WorkerOptions configures one worker loop.
type WorkerOptions struct {
	// ID names the worker to the daemon (required).
	ID string
	// Poll is the idle wait between lease requests when nothing was
	// runnable (default 500ms).
	Poll time.Duration
	// Heartbeat is the liveness cadence; 0 adopts the daemon's suggestion
	// from registration.
	Heartbeat time.Duration
	// Backoff shapes the retry delays for registration, acquire errors,
	// and report delivery (zero value: the shared defaults, 250ms/30s).
	Backoff BackoffPolicy
	// ChaosKillAtLease <= 0 disables chaos (the zero value is safe). At
	// N >= 1 the worker completes N-1 points normally, acquires its Nth
	// lease, and dies abruptly holding it: no completion, no failure
	// report, no more heartbeats. The lease must be recovered by the
	// daemon's expiry/heartbeat machinery — this is the fault-injection
	// hook the chaos tests and the CI smoke job drive. (The campaignworker
	// flag -chaos.kill-after-points N maps to ChaosKillAtLease N+1.)
	ChaosKillAtLease int
	// ChaosLatency sleeps this long before reporting each completion
	// (straggler simulation; also widens the window for lease theft).
	ChaosLatency time.Duration
	// Log, when non-nil, receives one line per worker event.
	Log io.Writer
}

// RunWorker runs the acquire→run→report loop against a daemon until ctx is
// cancelled (graceful: the in-flight point finishes and reports first) or
// chaos kills it. The loop is built to outlive the daemon: registration,
// acquire and report delivery all retry transient failures with the
// shared capped exponential backoff, completions and failure reports are
// never abandoned while the context lives (a computed record is delivered
// through arbitrary daemon downtime — a restarted daemon rebuilds the job
// from its records and will accept or dup-discard it), and the heartbeat
// goroutine re-registers after an outage ends. Only a permanent refusal
// (4xx — the daemon understood and said no) drops a report, because
// resending it cannot change the answer.
func RunWorker(ctx context.Context, c *Client, r Runner, o WorkerOptions) error {
	if o.ID == "" {
		return fmt.Errorf("jobqueue: WorkerOptions.ID is required")
	}
	if o.Poll <= 0 {
		o.Poll = 500 * time.Millisecond
	}
	logf := func(format string, args ...any) {
		if o.Log != nil {
			fmt.Fprintf(o.Log, "worker %s: "+format+"\n", append([]any{o.ID}, args...)...)
		}
	}

	// Register, backing off while the daemon comes up.
	var info *RegisterInfo
	for attempt := 1; ; attempt++ {
		var err error
		info, err = c.Register(ctx, o.ID)
		if err == nil {
			break
		}
		d := o.Backoff.Delay(attempt)
		logf("register: %v (retrying in %v)", err, d)
		if !sleepCtx(ctx, d) {
			return ctx.Err()
		}
	}
	hb := o.Heartbeat
	if hb <= 0 {
		hb = time.Duration(info.HeartbeatMS) * time.Millisecond
	}
	if hb <= 0 {
		hb = 2 * time.Second
	}

	// The worker renews only the leases it knows it holds. A grant whose
	// response never arrived (connection cut mid-body) must NOT be kept
	// alive by our heartbeats — it expires by its deadline and the daemon
	// requeues the point.
	var heldMu sync.Mutex
	held := map[uint64]struct{}{}
	heldIDs := func() []uint64 {
		heldMu.Lock()
		defer heldMu.Unlock()
		ids := make([]uint64, 0, len(held))
		for id := range held {
			ids = append(ids, id)
		}
		return ids
	}

	// Heartbeats run for the worker's whole life, covering long points.
	// They stop the instant the loop returns — a chaos kill goes silent.
	// After an outage (any heartbeat error) the first success is followed
	// by a fresh registration, so a restarted daemon relearns the worker
	// without the worker abandoning whatever point it is computing.
	hbCtx, stopHB := context.WithCancel(ctx)
	defer stopHB()
	go func() {
		t := time.NewTicker(hb)
		defer t.Stop()
		outage := false
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
				if err := c.Heartbeat(hbCtx, o.ID, heldIDs()); err != nil {
					logf("heartbeat: %v", err)
					outage = true
					continue
				}
				if outage {
					outage = false
					if _, err := c.Register(hbCtx, o.ID); err != nil {
						logf("re-register after outage: %v", err)
					} else {
						logf("daemon back; re-registered")
					}
				}
			}
		}
	}()

	// deliver resends a report through daemon downtime until it lands, the
	// context ends, or the daemon permanently refuses it.
	deliver := func(what string, fn func() error) bool {
		for attempt := 1; ; attempt++ {
			err := fn()
			if err == nil {
				return true
			}
			if ctx.Err() != nil {
				return false
			}
			if !Retryable(err) {
				// The daemon heard the report and said no (e.g. record
				// mismatch): the lease machinery decides the point's fate.
				logf("%s rejected: %v", what, err)
				return false
			}
			d := o.Backoff.Delay(attempt)
			logf("%s: %v (retrying in %v)", what, err, d)
			if !sleepCtx(ctx, d) {
				return false
			}
		}
	}

	completed, acquired, acquireFails := 0, 0, 0
	for {
		select {
		case <-ctx.Done():
			logf("shutting down after %d point(s)", completed)
			return nil
		default:
		}
		lease, err := c.Acquire(ctx, o.ID)
		if err != nil {
			acquireFails++
			d := o.Backoff.Delay(acquireFails)
			logf("acquire: %v (retrying in %v)", err, d)
			if !sleepCtx(ctx, d) {
				return nil
			}
			continue
		}
		acquireFails = 0
		if lease == nil {
			if !sleepCtx(ctx, o.Poll) {
				return nil
			}
			continue
		}
		acquired++
		heldMu.Lock()
		held[lease.ID] = struct{}{}
		heldMu.Unlock()
		release := func() {
			heldMu.Lock()
			delete(held, lease.ID)
			heldMu.Unlock()
		}
		if o.ChaosKillAtLease > 0 && acquired >= o.ChaosKillAtLease {
			logf("CHAOS: dying with lease %d (%s/%s) unreported", lease.ID, lease.Point.Campaign, lease.Point.Key)
			return ErrChaosKill
		}
		logf("lease %d: %s/%s attempt %d", lease.ID, lease.Point.Campaign, lease.Point.Key, lease.Attempt)
		rec, err := r.RunPoint(lease)
		if o.ChaosLatency > 0 {
			time.Sleep(o.ChaosLatency)
		}
		if err != nil {
			logf("point %s/%s failed: %v", lease.Point.Campaign, lease.Point.Key, err)
			deliver("fail report", func() error { return c.Fail(ctx, lease.Ref(), err.Error()) })
			release()
			continue
		}
		if deliver("complete report", func() error { return c.Complete(ctx, lease.Ref(), rec) }) {
			completed++
		}
		release()
	}
}

// sleepCtx waits d or until ctx cancels; false means cancelled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
