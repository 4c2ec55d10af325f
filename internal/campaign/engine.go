package campaign

import (
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// ErrInterrupted is returned (possibly wrapped) by Run when RunOptions.
// Interrupt fired: the in-flight point was finished and its record
// flushed, no further points were started, and the checkpoint is a clean
// resumable prefix. Callers distinguish it with errors.Is to exit with a
// distinct status instead of reporting a failure.
var ErrInterrupted = errors.New("campaign: run interrupted")

// Unit is a campaign with its identity — the ID records and point keys are
// scoped under (e.g. the experiment ID "E1").
type Unit struct {
	ID string
	C  Campaign
}

// RunOptions configures one engine invocation.
type RunOptions struct {
	Config Config
	// ShardIndex/ShardCount partition the global point list deterministically
	// across processes: point i (in enumeration order over all selected
	// units) runs on shard ShardIndex iff i % ShardCount == ShardIndex.
	// ShardCount <= 1 disables sharding.
	ShardIndex int
	ShardCount int
	// Checkpoint, when set, streams one JSONL record per completed point to
	// this path (append-only, crash-tolerant).
	Checkpoint string
	// Resume loads Checkpoint first and skips every point that already has a
	// record matching (campaign, point, seed, scale). Requires Checkpoint.
	Resume bool
	// Trials stamps the per-point repetition count into records (informational;
	// the campaigns themselves derive it from Config).
	Trials int
	// Progress, when non-nil, receives one line per point with timing and an
	// ETA over the remaining points of this run.
	Progress io.Writer
	// Interrupt, when non-nil and closed (or sent to), stops the run
	// cleanly between points: the in-flight point finishes and streams its
	// record, then Run returns ErrInterrupted with the partial result set.
	// This is the graceful-shutdown hook — a SIGINT/SIGTERM handler closes
	// the channel and the checkpoint stays a clean resumable prefix rather
	// than relying on torn-tail repair.
	Interrupt <-chan struct{}
}

// task is one scheduled point.
type task struct {
	unit  Unit
	point Point
}

// Run executes the selected campaigns' grids under the given options and
// returns the resulting record set (resumed records included). Execution is
// sequential over points — parallelism lives inside a point's trial fan-out
// (sweep.RunTrialsScratch) — so the checkpoint stream orders records by
// grid position and a killed run leaves a clean prefix.
func Run(units []Unit, opt RunOptions) (*ResultSet, error) {
	if opt.ShardCount > 1 && (opt.ShardIndex < 0 || opt.ShardIndex >= opt.ShardCount) {
		return nil, fmt.Errorf("campaign: shard index %d outside 0..%d", opt.ShardIndex, opt.ShardCount-1)
	}
	if opt.Resume && opt.Checkpoint == "" {
		return nil, fmt.Errorf("campaign: resume requires a checkpoint path")
	}
	if err := opt.Config.Check(); err != nil {
		return nil, err
	}

	// Enumerate the global point list and validate key uniqueness.
	var tasks []task
	seen := map[string]bool{}
	for _, u := range units {
		if u.ID == "" {
			return nil, fmt.Errorf("campaign: unit with empty ID")
		}
		for _, pt := range u.C.Points(opt.Config) {
			if pt.Key == "" {
				return nil, fmt.Errorf("campaign %s: point with empty key", u.ID)
			}
			k := setKey(u.ID, pt.Key)
			if seen[k] {
				return nil, fmt.Errorf("campaign %s: duplicate point key %q", u.ID, pt.Key)
			}
			seen[k] = true
			tasks = append(tasks, task{unit: u, point: pt})
		}
	}

	prior := NewResultSet()
	if !opt.Resume && opt.Checkpoint != "" {
		// Refuse to clobber prior work: a non-empty checkpoint holds computed
		// records, and overwriting it silently would throw hours away on a
		// mistyped re-run. The operator chooses explicitly: Resume to
		// continue, or remove the file for a fresh stream.
		if st, err := os.Stat(opt.Checkpoint); err == nil && st.Size() > 0 {
			return nil, fmt.Errorf("campaign: checkpoint %s already holds records; pass resume to continue it, or remove the file to start fresh", opt.Checkpoint)
		}
	}
	if opt.Resume {
		// RepairCheckpoint drops and truncates a torn tail in place so the
		// next append starts on a fresh line and a resumed stream stays
		// byte-identical to an uninterrupted one. Tolerated damage is
		// surfaced, not absorbed silently; a corrupt terminated line —
		// mid-file or final — is an error, never "repaired".
		var rep LoadReport
		var err error
		prior, rep, err = RepairCheckpoint(opt.Checkpoint)
		if err != nil {
			return nil, err
		}
		if opt.Progress != nil && rep.TornTailBytes > 0 {
			fmt.Fprintf(opt.Progress, "checkpoint %s: dropped torn %d-byte tail (killed mid-append; repairing in place)\n",
				opt.Checkpoint, rep.TornTailBytes)
		}
		if opt.Progress != nil && rep.BlankLines > 0 {
			fmt.Fprintf(opt.Progress, "checkpoint %s: tolerated %d blank line(s)\n", opt.Checkpoint, rep.BlankLines)
		}
	}

	var sink *Sink
	if opt.Checkpoint != "" {
		// Without resume the checkpoint is a fresh stream (guarded non-empty
		// above); with it, records accumulate after the loaded prefix.
		fresh := !opt.Resume
		var err error
		sink, err = OpenSink(opt.Checkpoint, fresh)
		if err != nil {
			return nil, err
		}
		defer sink.Close()
	}

	// Pre-scan so the ETA denominator counts only points this run executes.
	inShard := func(i int) bool {
		return opt.ShardCount <= 1 || i%opt.ShardCount == opt.ShardIndex
	}
	toRun := 0
	for i, t := range tasks {
		if !inShard(i) {
			continue
		}
		if r, ok := prior.Lookup(t.unit.ID, t.point.Key); ok && r.matches(t.unit.ID, t.point.Key, opt.Config, opt.Trials) {
			continue
		}
		toRun++
	}

	interrupted := func() bool {
		if opt.Interrupt == nil {
			return false
		}
		select {
		case <-opt.Interrupt:
			return true
		default:
			return false
		}
	}

	rs := NewResultSet()
	done := 0
	var spent time.Duration
	for i, t := range tasks {
		if !inShard(i) {
			continue
		}
		if interrupted() {
			// Between points by construction: the previous point's record is
			// already appended and synced, so the checkpoint is a clean
			// prefix and -resume continues exactly here.
			return rs, fmt.Errorf("%w after %d point(s)", ErrInterrupted, done)
		}
		if r, ok := prior.Lookup(t.unit.ID, t.point.Key); ok && r.matches(t.unit.ID, t.point.Key, opt.Config, opt.Trials) {
			rs.Add(r)
			if opt.Progress != nil {
				fmt.Fprintf(opt.Progress, "%s %s: resumed from checkpoint\n", t.unit.ID, t.point.Key)
			}
			continue
		}
		if opt.Progress != nil {
			fmt.Fprintf(opt.Progress, "%s %s ...", t.unit.ID, t.point.Key)
		}
		start := time.Now()
		samples := t.unit.C.Run(opt.Config, t.point, opt.Config.Seed)
		elapsed := time.Since(start)
		spent += elapsed
		done++
		rec := newRecord(t.unit.ID, t.point, opt.Config, opt.Trials, samples)
		rs.Add(rec)
		if sink != nil {
			if err := sink.Append(rec); err != nil {
				return nil, err
			}
		}
		if opt.Progress != nil {
			eta := time.Duration(float64(spent) / float64(done) * float64(toRun-done)).Round(time.Second)
			fmt.Fprintf(opt.Progress, " done in %v [%d/%d, ETA %v]\n",
				elapsed.Round(time.Millisecond), done, toRun, eta)
		}
	}
	return rs, nil
}

// Complete reports whether every point of the unit has a record in the set
// — the precondition for rendering its tables.
func Complete(u Unit, cfg Config, rs *ResultSet) bool {
	for _, pt := range u.C.Points(cfg) {
		if _, ok := rs.Lookup(u.ID, pt.Key); !ok {
			return false
		}
	}
	return true
}
