package campaign

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
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

// matches reports whether the record satisfies the given run configuration
// for the identified point — the resume criterion. The trial count is part
// of it: a checkpoint written before a repetition-count change must not be
// silently mixed with freshly-run points.
func (r *Record) matches(campaignID, pointKey string, cfg Config, trials int) bool {
	return r.Campaign == campaignID && r.Point == pointKey &&
		r.Seed == cfg.Seed && r.Full == cfg.Full && r.Trials == trials
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
// crash can leave a torn final line — which ScanJSONL tolerates — and a
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

// LoadReport accounts for every byte of a loaded checkpoint that did NOT
// become a record, so tolerated damage is surfaced instead of silently
// absorbed. Only two shapes are ever tolerated: an unterminated final line
// (the torn tail of a killed append — the one malformation a prefix-only
// partial write can produce) and newline-terminated blank lines. Any
// terminated non-blank line that fails to parse was written whole and then
// corrupted, and loading errors wherever it sits — mid-file corruption
// must never be mistaken for a benign tear and silently mis-resumed over.
type LoadReport struct {
	// Records is the number of well-formed records loaded.
	Records int
	// TornTailBytes is the length of the dropped unterminated final line
	// (0 when the file ends cleanly).
	TornTailBytes int64
	// BlankLines counts tolerated newline-terminated blank lines.
	BlankLines int
}

// Warnings returns the count of tolerated anomalies (for callers that
// only want to know whether to warn).
func (r LoadReport) Warnings() int {
	n := r.BlankLines
	if r.TornTailBytes > 0 {
		n++
	}
	return n
}

// LoadRecords reads a JSONL checkpoint into a result set. A missing file
// yields an empty set. An unterminated final line — the torn tail of a
// killed append — is dropped; any line that ends in a newline was written
// whole, so failing to parse one is corruption and errors wherever it
// sits, mid-file or final. Use LoadRecordsReport to also learn what was
// tolerated.
func LoadRecords(path string) (*ResultSet, error) {
	rs, _, _, err := loadCheckpoint(path)
	return rs, err
}

// LoadRecordsReport is LoadRecords plus an explicit account of tolerated
// damage (torn tail, blank lines), so callers can warn instead of
// absorbing it silently.
func LoadRecordsReport(path string) (*ResultSet, LoadReport, error) {
	rs, _, rep, err := loadCheckpoint(path)
	return rs, rep, err
}

// RepairCheckpoint loads a checkpoint and truncates any torn tail in
// place, so the next append starts on a fresh line and a resumed stream
// stays byte-identical to an uninterrupted one. This must happen whenever
// the file exists — even a tear at offset 0 (a run killed mid-append of
// its very first record) would otherwise have the next record appended
// onto the partial line, corrupting the stream for good. The report tells
// the caller what was repaired.
func RepairCheckpoint(path string) (*ResultSet, LoadReport, error) {
	rs, cleanLen, rep, err := loadCheckpoint(path)
	if err != nil {
		return nil, rep, err
	}
	if _, statErr := os.Stat(path); statErr == nil {
		if err := os.Truncate(path, cleanLen); err != nil {
			return nil, rep, fmt.Errorf("campaign: truncate torn checkpoint tail: %w", err)
		}
	}
	return rs, rep, nil
}

// loadCheckpoint is LoadRecords plus the clean length — the byte offset
// just past the last well-formed line, the truncation target of
// RepairCheckpoint — and the damage report.
func loadCheckpoint(path string) (*ResultSet, int64, LoadReport, error) {
	rs := NewResultSet()
	cleanLen, rep, err := ScanJSONL(path, func(line []byte) error {
		var r Record
		if err := json.Unmarshal(line, &r); err != nil {
			return fmt.Errorf("corrupt record (not a torn tail — the line is newline-terminated): %w", err)
		}
		if r.Campaign == "" || r.Point == "" {
			return fmt.Errorf("record missing campaign/point")
		}
		rs.Add(&r)
		return nil
	})
	if err != nil {
		return nil, 0, rep, err
	}
	return rs, cleanLen, rep, nil
}

// ScanJSONL walks an append-only JSONL stream with the checkpoint sink's
// damage tolerance, handing every newline-terminated non-blank line to fn.
// An unterminated final line — the torn tail of a killed append, the one
// malformation a prefix-only partial write can produce — is excluded and
// reported; terminated blank lines are tolerated and counted. A fn error
// aborts the scan wrapped with the line number and byte offset: a
// terminated line that fails to parse was written whole and then
// corrupted, which callers must treat as real damage, never as a benign
// tear. Returns the clean length — the byte offset just past the last
// accepted line, the truncation target for in-place tail repair — and the
// damage report (fn successes counted in Records). A missing file scans
// as empty. The jobqueue job log (jobs.jsonl, one accepted spec per line)
// shares this machinery with the record checkpoints.
func ScanJSONL(path string, fn func(line []byte) error) (int64, LoadReport, error) {
	var rep LoadReport
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, rep, nil
	}
	if err != nil {
		return 0, rep, fmt.Errorf("campaign: open %s: %w", path, err)
	}
	defer f.Close()

	br := bufio.NewReaderSize(f, 1<<20)
	var offset, cleanLen int64
	line := 0
	for {
		chunk, readErr := br.ReadString('\n')
		if chunk != "" {
			line++
			offset += int64(len(chunk))
			terminated := strings.HasSuffix(chunk, "\n")
			text := strings.TrimSpace(chunk)
			switch {
			case text == "":
				if terminated {
					rep.BlankLines++
					cleanLen = offset
				} else {
					rep.TornTailBytes = int64(len(chunk))
				}
			case !terminated:
				// The torn tail of a killed append (necessarily the final
				// chunk), even if it happens to parse: every append ends
				// with a newline, so this line was cut mid-write. Excluded
				// from the scan and from cleanLen; tail repair truncates
				// it away.
				rep.TornTailBytes = int64(len(chunk))
			default:
				if err := fn([]byte(text)); err != nil {
					return 0, rep, fmt.Errorf("campaign: %s line %d (byte %d): %w", path, line, offset-int64(len(chunk)), err)
				}
				rep.Records++
				cleanLen = offset
			}
		}
		if readErr == io.EOF {
			break
		}
		if readErr != nil {
			return 0, rep, fmt.Errorf("campaign: read %s: %w", path, readErr)
		}
	}
	return cleanLen, rep, nil
}

// RepairJSONL scans a JSONL stream through fn and truncates any torn tail
// in place, so the next append starts on a fresh line — the generic form
// of RepairCheckpoint, used when a restarted campaignd reads its job log.
// The scan's hard-error contract is unchanged: a corrupt terminated line
// refuses rather than truncates, and leaves the file as it was.
func RepairJSONL(path string, fn func(line []byte) error) (LoadReport, error) {
	cleanLen, rep, err := ScanJSONL(path, fn)
	if err != nil {
		return rep, err
	}
	if _, statErr := os.Stat(path); statErr == nil {
		if err := os.Truncate(path, cleanLen); err != nil {
			return rep, fmt.Errorf("campaign: truncate torn tail of %s: %w", path, err)
		}
	}
	return rep, nil
}
