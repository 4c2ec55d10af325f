package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
)

// Record is the unit of the result stream: one completed grid point. The
// engine appends exactly one JSON line per record to the checkpoint sink,
// and every output view (markdown, CSV, JSONL) renders from records alone —
// so a table can be rebuilt, merged across shards, or resumed from
// checkpoints without re-running a single trial.
//
// The engine deliberately stamps no wall-clock or host fields into records,
// so a record's bytes are a pure function of (campaign, point, seed, scale)
// for every campaign whose samples are themselves deterministic — which is
// what makes "shard union == uninterrupted run" and "resumed ==
// uninterrupted" exact, testable properties rather than aspirations. (A
// campaign that *measures* wall-clock, like X4's kernel-throughput samples,
// is the documented exception: its records resume fine but are not
// reproducible byte-for-byte across runs or hosts.)
type Record struct {
	Campaign string                 `json:"campaign"`
	Point    string                 `json:"point"`
	Params   map[string]string      `json:"params,omitempty"`
	Seed     uint64                 `json:"seed"`
	Full     bool                   `json:"full,omitempty"`
	Trials   int                    `json:"trials,omitempty"`
	Samples  map[string][]NullFloat `json:"samples"`
}

// NullFloat is a float64 whose JSON form maps non-finite values to null
// (JSON has no NaN/Inf literal). Unmarshalling null yields NaN.
type NullFloat float64

// MarshalJSON implements json.Marshaler.
func (f NullFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return []byte("null"), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *NullFloat) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = NullFloat(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = NullFloat(v)
	return nil
}

// NewRecord packages one completed point into its stream form. It is the
// exported constructor for executors outside this package's engine — the
// jobqueue worker builds its completion reports with it — and uses exactly
// the engine's own encoding, so a record computed remotely is bit-identical
// to the one an in-process run would have streamed.
func NewRecord(campaignID string, pt Point, cfg Config, trials int, s Samples) *Record {
	return newRecord(campaignID, pt, cfg, trials, s)
}

// newRecord packages one completed point.
func newRecord(campaignID string, pt Point, cfg Config, trials int, s Samples) *Record {
	r := &Record{
		Campaign: campaignID,
		Point:    pt.Key,
		Params:   pt.Params,
		Seed:     cfg.Seed,
		Full:     cfg.Full,
		Trials:   trials,
		Samples:  make(map[string][]NullFloat, len(s)),
	}
	for k, xs := range s {
		vs := make([]NullFloat, len(xs))
		for i, x := range xs {
			vs[i] = NullFloat(x)
		}
		r.Samples[k] = vs
	}
	return r
}

// samples converts the record back to the Run-stage sample representation.
func (r *Record) samples() Samples {
	out := make(Samples, len(r.Samples))
	for k, vs := range r.Samples {
		xs := make([]float64, len(vs))
		for i, v := range vs {
			xs[i] = float64(v)
		}
		out[k] = xs
	}
	return out
}

// Matches reports whether the record stands for the identified point at
// the given seed, scale and trial count: the one rule by which a resumed
// campaign.Run reuses a checkpointed record and campaignd resumes a job or
// accepts a worker's completion. The trial count is part of it: a
// checkpoint written before a repetition-count change must not be silently
// mixed with freshly-run points.
func (r *Record) Matches(campaignID, pointKey string, seed uint64, full bool, trials int) bool {
	return r.Campaign == campaignID && r.Point == pointKey &&
		r.Seed == seed && r.Full == full && r.Trials == trials
}

// ResultSet holds the records of one run, in completion order, with
// (campaign, point) lookup. Adding a record for an existing (campaign,
// point) replaces it.
type ResultSet struct {
	byKey map[string]*Record
	recs  []*Record
}

// NewResultSet returns an empty result set.
func NewResultSet() *ResultSet {
	return &ResultSet{byKey: map[string]*Record{}}
}

func setKey(campaignID, pointKey string) string { return campaignID + "\x00" + pointKey }

// Add inserts or replaces a record.
func (rs *ResultSet) Add(r *Record) {
	k := setKey(r.Campaign, r.Point)
	if old, ok := rs.byKey[k]; ok {
		for i, x := range rs.recs {
			if x == old {
				rs.recs[i] = r
				break
			}
		}
	} else {
		rs.recs = append(rs.recs, r)
	}
	rs.byKey[k] = r
}

// Lookup finds the record for a (campaign, point) pair.
func (rs *ResultSet) Lookup(campaignID, pointKey string) (*Record, bool) {
	r, ok := rs.byKey[setKey(campaignID, pointKey)]
	return r, ok
}

// Records returns the records in completion order.
func (rs *ResultSet) Records() []*Record { return rs.recs }

// WriteJSONL streams every record as one JSON line each.
func (rs *ResultSet) WriteJSONL(w io.Writer) error {
	for _, r := range rs.recs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
			return err
		}
	}
	return nil
}

// View is a campaign-scoped read handle on a result set, handed to the
// Render stage.
type View struct {
	rs *ResultSet
	id string
}

// NewView scopes a result set to one campaign.
func NewView(rs *ResultSet, campaignID string) View { return View{rs: rs, id: campaignID} }

// Samples returns the sample vectors recorded for the given point key. It
// panics with a descriptive message when the point is missing — Render only
// runs on complete result sets, so a miss is a programming error (points
// and render disagreeing on keys) or a truncated checkpoint.
func (v View) Samples(pointKey string) Samples {
	r, ok := v.rs.Lookup(v.id, pointKey)
	if !ok {
		panic(fmt.Sprintf("campaign: no record for %s point %q (points/render key mismatch, or incomplete record stream)", v.id, pointKey))
	}
	return r.samples()
}

// --- checkpoint sink ---

// Sink is an append-only JSONL stream: a record checkpoint, or campaignd's
// job log. Every value is written as a single Write of one full line
// followed by a sync, and a failed write or sync is cut back off, so only a
// crash can leave a torn final line — which RepairJSONL cuts off — and a
// line, once visible, is durable and complete.
type Sink struct {
	f *os.File
}

// OpenSink opens (creating if needed) a JSONL file for appending; fresh
// truncates any existing content first (a new stream rather than a resumed
// one).
func OpenSink(path string, fresh bool) (*Sink, error) {
	flags := os.O_CREATE | os.O_WRONLY | os.O_APPEND
	if fresh {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("campaign: open sink: %w", err)
	}
	return &Sink{f: f}, nil
}

// Append durably writes v's JSON encoding as one line. A write or sync
// that fails truncates the file back to its size before the call, so the
// failed line can neither glue itself to the next append — a retry of the
// same record included — nor survive as a line of its own.
func (s *Sink) Append(v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("campaign: encode line: %w", err)
	}
	st, err := s.f.Stat()
	if err == nil {
		if _, err = s.f.Write(append(line, '\n')); err == nil {
			err = s.f.Sync()
		}
		if err != nil {
			s.f.Truncate(st.Size()) //nolint:errcheck // err is the one to report
		}
	}
	if err != nil {
		return fmt.Errorf("campaign: append: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (s *Sink) Close() error { return s.f.Close() }

// LoadReport accounts for every byte of a reopened stream that was NOT
// handed on as a line, so tolerated damage is surfaced instead of silently
// absorbed. Only two shapes are ever tolerated: an unterminated final line
// (the torn tail of a killed append — the one malformation a prefix-only
// partial write can produce) and newline-terminated blank lines. Any
// terminated non-blank line that fails to parse was written whole and then
// corrupted, and reopening errors wherever it sits — mid-file corruption
// must never be mistaken for a benign tear and silently mis-resumed over.
type LoadReport struct {
	// Records is the number of lines handed on: records, or the job specs
	// of campaignd's log.
	Records int
	// TornTailBytes is the length of the cut unterminated final line (0
	// when the file ends cleanly).
	TornTailBytes int64
	// BlankLines counts tolerated newline-terminated blank lines.
	BlankLines int
	// Dropped counts the records a resumed checkpoint dropped as not
	// reusable (see OpenCheckpoint); they count in Records too.
	Dropped int
}

// OpenCheckpoint opens the record checkpoint at path for a run: the one
// reopen rule campaign.Run and campaignd share. Without resume it starts a
// fresh stream, and refuses a file that holds any bytes: those are
// computed records, and overwriting them silently would throw hours away on
// a mistyped re-run. With resume it reads every record, cuts a torn tail in
// place (see RepairJSONL), and returns in the set the records keep accepts
// (a nil keep accepts all): a run keeps the records of its points that
// Record.Matches, and those of points it does not compute. When keep
// rejects a record, the file is rewritten to the accepted lines, in their
// order, through a synced temporary file renamed over path before anything
// is appended, so the stale records never precede the reruns and the
// resumed stream stays byte-identical to an uninterrupted one. The report
// tells the caller what the repair tolerated and how many records it
// dropped.
func OpenCheckpoint(path string, resume bool, keep func(*Record) bool) (*Sink, *ResultSet, LoadReport, error) {
	rs := NewResultSet()
	var rep LoadReport
	if resume {
		var kept []byte // the accepted lines, each newline-terminated
		dropped := 0
		var err error
		rep, err = RepairJSONL(path, func(line []byte) error {
			var r Record
			if err := json.Unmarshal(line, &r); err != nil {
				return fmt.Errorf("corrupt record (not a torn tail — the line is newline-terminated): %w", err)
			}
			if r.Campaign == "" || r.Point == "" {
				return fmt.Errorf("record missing campaign/point")
			}
			if keep != nil && !keep(&r) {
				dropped++
				return nil
			}
			rs.Add(&r)
			kept = append(append(kept, line...), '\n')
			return nil
		})
		rep.Dropped = dropped
		if err == nil && dropped > 0 {
			err = ReplaceFile(path, kept)
		}
		if err != nil {
			return nil, nil, rep, err
		}
	} else if st, err := os.Stat(path); err == nil && st.Size() > 0 {
		return nil, nil, rep, fmt.Errorf("campaign: checkpoint %s already holds records; resume to continue it, or remove the file to start fresh", path)
	}
	sink, err := OpenSink(path, !resume)
	if err != nil {
		return nil, nil, rep, err
	}
	return sink, rs, rep, nil
}

// ReplaceFile replaces the file at path with data so that a crash leaves
// either the old file or the new one: it writes and syncs a temporary file
// beside path, renames it over path and syncs the directory. A resumed
// checkpoint is rewritten through it, and campaignd's job manifests are
// written through it.
func ReplaceFile(path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("campaign: replace %s: %w", path, err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp) //nolint:errcheck // err is the one to report
		return fmt.Errorf("campaign: replace %s: %w", path, err)
	}
	dir, err := os.Open(filepath.Dir(path))
	if err == nil {
		err = dir.Sync()
		if cerr := dir.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return fmt.Errorf("campaign: replace %s: sync directory: %w", path, err)
	}
	return nil
}

// RepairJSONL reopens an append-only JSONL stream — a record checkpoint, or
// campaignd's job log of accepted specs — with the sink's damage
// tolerance. It hands every newline-terminated non-blank line to fn and
// counts it in the report's Records. Terminated blank lines are tolerated
// and counted. An unterminated final line, the torn tail of a killed
// append, is never handed to fn, and is cut off in place so the next
// append starts on a fresh line — even a tear at offset 0, a stream killed
// mid-append of its very first line. A fn error aborts wrapped with the
// line number and byte offset and leaves the file as it was: a terminated
// line that fails to parse was written whole and then corrupted, which is
// real damage, never a benign tear. A missing file reads as empty.
func RepairJSONL(path string, fn func(line []byte) error) (LoadReport, error) {
	var rep LoadReport
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return rep, nil
	}
	if err != nil {
		return rep, fmt.Errorf("campaign: open %s: %w", path, err)
	}
	defer f.Close()

	br := bufio.NewReaderSize(f, 1<<20)
	var offset int64
	line := 0
	for {
		chunk, readErr := br.ReadString('\n')
		if chunk != "" {
			line++
			offset += int64(len(chunk))
			terminated := strings.HasSuffix(chunk, "\n")
			text := strings.TrimSpace(chunk)
			switch {
			case !terminated:
				// The torn tail of a killed append (necessarily the final
				// chunk), even if it is blank or happens to parse: every
				// append ends with a newline, so this line was cut
				// mid-write.
				rep.TornTailBytes = int64(len(chunk))
			case text == "":
				rep.BlankLines++
			default:
				if err := fn([]byte(text)); err != nil {
					return rep, fmt.Errorf("campaign: %s line %d (byte %d): %w", path, line, offset-int64(len(chunk)), err)
				}
				rep.Records++
			}
		}
		if readErr == io.EOF {
			break
		}
		if readErr != nil {
			return rep, fmt.Errorf("campaign: read %s: %w", path, readErr)
		}
	}
	if rep.TornTailBytes > 0 {
		// The torn tail is the final chunk, so the clean prefix is the rest.
		if err := os.Truncate(path, offset-rep.TornTailBytes); err != nil {
			return rep, fmt.Errorf("campaign: truncate torn tail of %s: %w", path, err)
		}
	}
	return rep, nil
}
