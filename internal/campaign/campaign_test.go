package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/sweep"
)

// toyPoint is the typed payload of a testCampaign point.
type toyPoint struct {
	proto string
	n     int
}

// testCampaign is a tiny synthetic campaign: a 2×3 grid whose "value"
// sample is a pure function of (point, seed), so record equality across
// execution strategies is meaningful. One metric carries NaN to exercise
// the null round-trip.
func testCampaign() Campaign {
	points := func(cfg Config) []Point {
		var pts []Point
		for _, proto := range []string{"a", "b"} {
			for n := 1; n <= 3; n++ {
				pts = append(pts, Pt(fmt.Sprintf("proto=%s/n=%d", proto, n), toyPoint{proto, n},
					"proto", proto, "n", fmt.Sprint(n)))
			}
		}
		return pts
	}
	return Campaign{
		Points: points,
		Run: func(cfg Config, pt Point, seed uint64) Samples {
			d := pt.Data.(toyPoint)
			base := float64(len(d.proto)) * 1000
			return Samples{
				"value": {base + float64(d.n)*float64(seed%97), float64(d.n)},
				"gap":   {math.NaN(), float64(d.n)},
			}
		},
		Render: func(cfg Config, v View) []*sweep.Table {
			t := sweep.NewTable("synthetic", "proto", "n", "value")
			for _, pt := range points(cfg) {
				d := pt.Data.(toyPoint)
				s := v.Samples(pt.Key)
				t.AddRow(d.proto, fmt.Sprint(d.n), sweep.F(s["value"][0]))
			}
			return []*sweep.Table{t}
		},
	}
}

func testUnits() []Unit { return []Unit{{ID: "T1", C: testCampaign()}} }

// reopen resumes the checkpoint at path the way a run does and closes the
// sink again: the records it holds, and what the repair tolerated.
func reopen(path string) (*ResultSet, LoadReport, error) {
	sink, rs, rep, err := OpenCheckpoint(path, true, nil)
	if err != nil {
		return nil, rep, err
	}
	return rs, rep, sink.Close()
}

// sortedLines renders a record set as canonically-ordered JSONL lines, so
// runs that complete points in different orders compare equal.
func sortedLines(t *testing.T, rs *ResultSet) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, r := range rs.Records() {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[r.Campaign+"/"+r.Point] = string(b)
	}
	return out
}

func TestNullFloatRoundTrip(t *testing.T) {
	in := []NullFloat{1.5, NullFloat(math.NaN()), NullFloat(math.Inf(1)), -3}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != "[1.5,null,null,-3]" {
		t.Fatalf("marshal: %s", b)
	}
	var out []NullFloat
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1.5 || !math.IsNaN(float64(out[1])) || !math.IsNaN(float64(out[2])) || out[3] != -3 {
		t.Fatalf("round trip: %v", out)
	}
}

func TestRunValidation(t *testing.T) {
	cfg := Config{Seed: 7}
	if _, err := Run(testUnits(), RunOptions{Config: cfg, ShardCount: 2, ShardIndex: 5}); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
	if _, err := Run(testUnits(), RunOptions{Config: cfg, Resume: true}); err == nil {
		t.Fatal("resume without checkpoint accepted")
	}
	dup := testCampaign()
	inner := dup.Points
	dup.Points = func(cfg Config) []Point {
		pts := inner(cfg)
		return append(pts, pts[0])
	}
	if _, err := Run([]Unit{{ID: "T1", C: dup}}, RunOptions{Config: cfg}); err == nil || !strings.Contains(err.Error(), "duplicate point key") {
		t.Fatalf("duplicate point keys not rejected: %v", err)
	}
	if _, err := Run([]Unit{{ID: "", C: testCampaign()}}, RunOptions{Config: cfg}); err == nil {
		t.Fatal("empty unit ID accepted")
	}
	// A non-empty checkpoint without Resume holds computed records; the
	// engine must refuse rather than silently truncate them.
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	if _, err := Run(testUnits(), RunOptions{Config: cfg, Checkpoint: ck}); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(testUnits(), RunOptions{Config: cfg, Checkpoint: ck}); err == nil ||
		!strings.Contains(err.Error(), "already holds records") {
		t.Fatalf("non-resume run over an existing checkpoint not refused: %v", err)
	}
	if _, err := Run(testUnits(), RunOptions{Config: cfg, Checkpoint: ck, Resume: true}); err != nil {
		t.Fatalf("resume over the same checkpoint must keep working: %v", err)
	}
}

func TestShardUnionEqualsUnsharded(t *testing.T) {
	cfg := Config{Seed: 99}
	full, err := Run(testUnits(), RunOptions{Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	union := map[string]string{}
	counts := map[string]int{}
	for shard := 0; shard < 3; shard++ {
		rs, err := Run(testUnits(), RunOptions{Config: cfg, ShardIndex: shard, ShardCount: 3})
		if err != nil {
			t.Fatal(err)
		}
		for k, line := range sortedLines(t, rs) {
			union[k] = line
			counts[k]++
		}
	}
	want := sortedLines(t, full)
	if len(union) != len(want) {
		t.Fatalf("shard union has %d records, unsharded %d", len(union), len(want))
	}
	for k, line := range want {
		if union[k] != line {
			t.Errorf("record %s differs between sharded and unsharded runs\nsharded:   %s\nunsharded: %s", k, union[k], line)
		}
		if counts[k] != 1 {
			t.Errorf("record %s ran on %d shards, want exactly 1", k, counts[k])
		}
	}
}

func TestResumeEquivalence(t *testing.T) {
	cfg := Config{Seed: 1234}
	dir := t.TempDir()

	// One uninterrupted run with a checkpoint.
	fullPath := filepath.Join(dir, "full.jsonl")
	if _, err := Run(testUnits(), RunOptions{Config: cfg, Checkpoint: fullPath}); err != nil {
		t.Fatal(err)
	}
	fullBytes, err := os.ReadFile(fullPath)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a kill after 2 points: keep the first 2 lines, resume.
	lines := strings.SplitAfter(string(fullBytes), "\n")
	partial := strings.Join(lines[:2], "")
	resumePath := filepath.Join(dir, "resume.jsonl")
	if err := os.WriteFile(resumePath, []byte(partial), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := Run(testUnits(), RunOptions{Config: cfg, Checkpoint: resumePath, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	resumedBytes, err := os.ReadFile(resumePath)
	if err != nil {
		t.Fatal(err)
	}
	if string(resumedBytes) != string(fullBytes) {
		t.Errorf("killed-then-resumed checkpoint differs from uninterrupted run\nresumed:\n%s\nfull:\n%s", resumedBytes, fullBytes)
	}
	if len(rs.Records()) != 6 {
		t.Fatalf("resumed result set has %d records, want 6", len(rs.Records()))
	}

	// A second resume over the complete file runs nothing and changes nothing
	// (pure render-from-checkpoint mode).
	if _, err := Run(testUnits(), RunOptions{Config: cfg, Checkpoint: resumePath, Resume: true}); err != nil {
		t.Fatal(err)
	}
	again, _ := os.ReadFile(resumePath)
	if string(again) != string(fullBytes) {
		t.Error("no-op resume modified the checkpoint")
	}

	// Records from a different seed or scale must NOT satisfy resume.
	rs2, err := Run(testUnits(), RunOptions{Config: Config{Seed: 4321}, Checkpoint: resumePath, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs2.Records() {
		if r.Seed != 4321 {
			t.Fatalf("resume reused a record with stale seed %d", r.Seed)
		}
	}
}

func TestResumeToleratesTornTail(t *testing.T) {
	cfg := Config{Seed: 5}
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.jsonl")
	if _, err := Run(testUnits(), RunOptions{Config: cfg, Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	full, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(full), "\n")
	// Keep 3 complete records plus a torn fragment of the 4th.
	torn := strings.Join(lines[:3], "") + lines[3][:len(lines[3])/2]
	if err := os.WriteFile(path, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := Run(testUnits(), RunOptions{Config: cfg, Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatalf("torn tail not tolerated: %v", err)
	}
	if len(rs.Records()) != 6 {
		t.Fatalf("resumed %d records, want 6", len(rs.Records()))
	}
	// Resume repairs the tear in place: the fragment is truncated before the
	// re-run of its point appends, so the final file is byte-identical to the
	// uninterrupted stream.
	repaired, _ := os.ReadFile(path)
	if string(repaired) != string(full) {
		t.Errorf("repaired checkpoint differs from uninterrupted stream:\n%s\nvs\n%s", repaired, full)
	}
	// A tear at offset 0 — a run killed mid-append of its very first record
	// — must also be repaired: the torn fragment is truncated away, not
	// appended onto.
	if err := os.WriteFile(path, []byte(lines[0][:len(lines[0])/2]), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err = Run(testUnits(), RunOptions{Config: cfg, Checkpoint: path, Resume: true})
	if err != nil {
		t.Fatalf("offset-0 tear not tolerated: %v", err)
	}
	if len(rs.Records()) != 6 {
		t.Fatalf("offset-0 resume produced %d records, want 6", len(rs.Records()))
	}
	repaired, _ = os.ReadFile(path)
	if string(repaired) != string(full) {
		t.Errorf("offset-0 repaired checkpoint differs from uninterrupted stream")
	}
	if _, _, err := reopen(path); err != nil {
		t.Errorf("repaired checkpoint unreadable: %v", err)
	}

	// Corruption mid-file, by contrast, must fail loudly.
	bad := lines[0][:len(lines[0])/2] + "\n" + strings.Join(lines[1:3], "")
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reopen(path); err == nil {
		t.Fatal("mid-file corruption not detected")
	}
	// ... including on the FINAL line when it is newline-terminated: sink
	// writes are prefix-only, so a complete line that fails to parse was
	// corrupted after the fact, never torn — it must not be silently
	// truncated as if it were a torn tail.
	if err := os.WriteFile(path, []byte(strings.Join(lines[:2], "")+"{\"broken\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := reopen(path); err == nil {
		t.Fatal("terminated malformed final line not detected as corruption")
	}
	if _, err := Run(testUnits(), RunOptions{Config: cfg, Checkpoint: path, Resume: true}); err == nil {
		t.Fatal("resume over a corrupt terminated final line must refuse, not truncate")
	}
}

func TestRenderFromCheckpointOnly(t *testing.T) {
	cfg := Config{Seed: 77}
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.jsonl")
	want, err := Run(testUnits(), RunOptions{Config: cfg, Checkpoint: path})
	if err != nil {
		t.Fatal(err)
	}
	wantTables := testCampaign().Render(cfg, NewView(want, "T1"))

	loaded, _, err := reopen(path)
	if err != nil {
		t.Fatal(err)
	}
	gotTables := testCampaign().Render(cfg, NewView(loaded, "T1"))
	if len(gotTables) != len(wantTables) {
		t.Fatalf("table count %d vs %d", len(gotTables), len(wantTables))
	}
	for i := range gotTables {
		if gotTables[i].Markdown() != wantTables[i].Markdown() {
			t.Errorf("table %d rendered from checkpoint differs from live render", i)
		}
	}
}

func TestCompleteDetectsMissingPoints(t *testing.T) {
	cfg := Config{Seed: 3}
	u := testUnits()[0]
	rs, err := Run([]Unit{u}, RunOptions{Config: cfg, ShardIndex: 0, ShardCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	if Complete(u, cfg, rs) {
		t.Fatal("half a grid reported complete")
	}
	rest, err := Run([]Unit{u}, RunOptions{Config: cfg, ShardIndex: 1, ShardCount: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rest.Records() {
		rs.Add(r)
	}
	if !Complete(u, cfg, rs) {
		t.Fatal("merged shards reported incomplete")
	}
}

// TestResumeSurvivesTruncationAtEveryByte is the exhaustive crash-injection
// sweep: a killed process can leave the checkpoint cut at ANY byte
// boundary, and resume must rebuild the byte-identical uninterrupted
// stream from every one of them. Every offset inside the final record is
// always tested (the satellite requirement); without -short the sweep
// covers every byte of the whole file.
func TestResumeSurvivesTruncationAtEveryByte(t *testing.T) {
	cfg := Config{Seed: 5}
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.jsonl")
	if _, err := Run(testUnits(), RunOptions{Config: cfg, Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := strings.TrimSuffix(string(full), "\n")
	finalStart := strings.LastIndex(body, "\n") + 1
	if finalStart <= 0 || finalStart >= len(full)-1 {
		t.Fatalf("cannot locate final record (finalStart=%d, len=%d)", finalStart, len(full))
	}

	from := finalStart
	if !testing.Short() {
		from = 0
	}
	for cut := from; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rs, err := Run(testUnits(), RunOptions{Config: cfg, Checkpoint: path, Resume: true})
		if err != nil {
			t.Fatalf("cut at byte %d: resume failed: %v", cut, err)
		}
		if len(rs.Records()) != 6 {
			t.Fatalf("cut at byte %d: resumed %d records, want 6", cut, len(rs.Records()))
		}
		resumed, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(resumed, full) {
			t.Fatalf("cut at byte %d: resumed checkpoint differs from uninterrupted stream", cut)
		}
	}
}

// TestLoadReportSurfacesToleratedDamage pins the explicit-warning contract:
// what reopening tolerates (torn tail, blank lines) is itemised in the
// report, never silently absorbed — and what it does not tolerate
// (corruption of a terminated line) errors with the line and byte offset.
// It also pins OpenCheckpoint's refusal without resume.
func TestLoadReportSurfacesToleratedDamage(t *testing.T) {
	cfg := Config{Seed: 5}
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.jsonl")
	if _, err := Run(testUnits(), RunOptions{Config: cfg, Checkpoint: path}); err != nil {
		t.Fatal(err)
	}
	full, _ := os.ReadFile(path)

	// Clean file: six records, nothing tolerated.
	rs, rep, err := reopen(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep != (LoadReport{Records: 6}) || len(rs.Records()) != 6 {
		t.Fatalf("clean report %+v", rep)
	}

	// Without resume a file that holds bytes is refused and left alone.
	if _, _, _, err := OpenCheckpoint(path, false, nil); err == nil || !strings.Contains(err.Error(), "already holds records") {
		t.Fatalf("fresh open over a written checkpoint: %v, want a refusal", err)
	}
	if kept, _ := os.ReadFile(path); !bytes.Equal(kept, full) {
		t.Fatal("refused fresh open changed the checkpoint")
	}

	// Torn tail: counted byte for byte, and repaired away in place.
	frag := `{"campaign":"T1","point":"torn`
	if err := os.WriteFile(path, append(append([]byte{}, full...), frag...), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err = reopen(path)
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	if rep != (LoadReport{Records: 6, TornTailBytes: int64(len(frag))}) {
		t.Fatalf("torn report %+v, want %d torn bytes", rep, len(frag))
	}
	repaired, _ := os.ReadFile(path)
	if !bytes.Equal(repaired, full) {
		t.Errorf("repair did not restore the clean stream")
	}

	// Blank terminated lines are tolerated but itemised.
	lines := strings.SplitAfter(string(full), "\n")
	withBlank := lines[0] + "\n" + strings.Join(lines[1:], "")
	if err := os.WriteFile(path, []byte(withBlank), 0o644); err != nil {
		t.Fatal(err)
	}
	_, rep, err = reopen(path)
	if err != nil {
		t.Fatalf("blank line rejected: %v", err)
	}
	if rep != (LoadReport{Records: 6, BlankLines: 1}) {
		t.Fatalf("blank-line report %+v", rep)
	}

	// A corrupt terminated line errors and names where.
	bad := lines[0] + "{broken}\n" + strings.Join(lines[1:], "")
	if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = reopen(path)
	if err == nil {
		t.Fatal("corrupt terminated line tolerated")
	}
	if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "byte") ||
		!strings.Contains(err.Error(), "not a torn tail") {
		t.Errorf("corruption error lacks location diagnostics: %v", err)
	}
}

// TestRunInterruptStopsBetweenPoints drives the engine's graceful-shutdown
// hook: an interrupt raised while a point runs lets that point finish and
// flush, stops before the next one, and returns ErrInterrupted — leaving a
// clean prefix a resume completes to the byte-identical full stream.
func TestRunInterruptStopsBetweenPoints(t *testing.T) {
	cfg := Config{Seed: 5}
	dir := t.TempDir()
	truth := filepath.Join(dir, "truth.jsonl")
	if _, err := Run(testUnits(), RunOptions{Config: cfg, Checkpoint: truth}); err != nil {
		t.Fatal(err)
	}
	fullBytes, _ := os.ReadFile(truth)

	// The campaign itself pulls the trigger after its first point — the
	// deterministic stand-in for a SIGINT landing mid-run.
	interrupt := make(chan struct{})
	var once sync.Once
	c := testCampaign()
	inner := c.Run
	c.Run = func(cfg Config, pt Point, seed uint64) Samples {
		defer once.Do(func() { close(interrupt) })
		return inner(cfg, pt, seed)
	}
	path := filepath.Join(dir, "ck.jsonl")
	rs, err := Run([]Unit{{ID: "T1", C: c}}, RunOptions{
		Config: cfg, Checkpoint: path, Interrupt: interrupt,
	})
	if !errors.Is(err, ErrInterrupted) {
		t.Fatalf("err = %v, want ErrInterrupted", err)
	}
	if len(rs.Records()) != 1 {
		t.Fatalf("interrupted run holds %d records, want the 1 finished point", len(rs.Records()))
	}
	partial, _ := os.ReadFile(path)
	if !bytes.HasPrefix(fullBytes, partial) || len(partial) == 0 {
		t.Fatalf("interrupted checkpoint is not a clean prefix of the full stream")
	}

	// A pre-raised interrupt stops before any point at all.
	pre := make(chan struct{})
	close(pre)
	rs, err = Run(testUnits(), RunOptions{Config: cfg, Interrupt: pre})
	if !errors.Is(err, ErrInterrupted) || len(rs.Records()) != 0 {
		t.Fatalf("pre-raised interrupt: err=%v records=%d, want ErrInterrupted and 0", err, len(rs.Records()))
	}

	// Resume completes the interrupted checkpoint to the full byte stream.
	if _, err := Run(testUnits(), RunOptions{Config: cfg, Checkpoint: path, Resume: true}); err != nil {
		t.Fatalf("resume after interrupt: %v", err)
	}
	resumed, _ := os.ReadFile(path)
	if !bytes.Equal(resumed, fullBytes) {
		t.Errorf("resumed-after-interrupt checkpoint differs from uninterrupted stream")
	}
}

// TestResumeUnderAnotherSeed resumes a finished checkpoint under a new
// seed. None of its records match, so the resume drops them all before it
// appends, and the file ends byte-identical to an uninterrupted run of the
// new seed. Resumed as one shard of two, the records of the other shard's
// points stay, ahead of the reruns and in their order.
func TestResumeUnderAnotherSeed(t *testing.T) {
	dir := t.TempDir()
	run := func(path string, seed uint64, shard, shards int, resume bool) string {
		t.Helper()
		if _, err := Run(testUnits(), RunOptions{Config: Config{Seed: seed}, Checkpoint: path,
			Resume: resume, ShardIndex: shard, ShardCount: shards}); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	old := run(filepath.Join(dir, "seed1.jsonl"), 1, 0, 1, false)
	fresh := run(filepath.Join(dir, "seed2.jsonl"), 2, 0, 1, false)

	path := filepath.Join(dir, "resumed.jsonl")
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	var progress strings.Builder
	if _, err := Run(testUnits(), RunOptions{Config: Config{Seed: 2}, Checkpoint: path, Resume: true, Progress: &progress}); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); string(got) != fresh {
		t.Fatalf("seed-1 checkpoint resumed at seed 2:\n%s\nwant the uninterrupted seed-2 run:\n%s", got, fresh)
	}
	if !strings.Contains(progress.String(), "dropped 6 record(s)") {
		t.Fatalf("progress does not report the 6 dropped records:\n%s", progress.String())
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("the rewrite left its temporary file behind: %v", err)
	}

	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	oldLines := strings.SplitAfter(old, "\n")
	freshLines := strings.SplitAfter(fresh, "\n")
	var want string
	for i := 1; i < 6; i += 2 {
		want += oldLines[i] // shard 1's points, not this run's: kept
	}
	for i := 0; i < 6; i += 2 {
		want += freshLines[i] // shard 0's points, rerun at seed 2
	}
	if got := run(path, 2, 0, 2, true); got != want {
		t.Fatalf("seed-1 checkpoint resumed as shard 0/2 at seed 2:\n%s\nwant:\n%s", got, want)
	}
}
