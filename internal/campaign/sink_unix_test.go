//go:build unix

package campaign

import (
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// TestSinkAppendCutsFailedWriteBack: an append that writes part of its line
// and then fails must leave none of it behind, so the retry of the same
// record — what a campaignd does once storage recovers — lands on a fresh
// line and the checkpoint still loads. A file size limit just past the
// first record makes the kernel take only 7 bytes of the second; the Go
// runtime ignores the SIGXFSZ that refuses the rest.
func TestSinkAppendCutsFailedWriteBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "records.jsonl")
	sink, err := OpenSink(path, true)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	cfg := Config{Seed: 7}
	recs := []*Record{
		newRecord("c", Point{Key: "a"}, cfg, 1, Samples{"x": {1}}),
		newRecord("c", Point{Key: "b"}, cfg, 1, Samples{"x": {2}}),
	}
	if err := sink.Append(recs[0]); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	lim := old
	setLimit(&lim.Cur, st.Size()+7)
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Skipf("cannot lower the file size limit: %v", err)
	}
	failed := sink.Append(recs[1])
	// Restore the limit before anything else writes a file.
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Fatal(err)
	}
	if failed == nil {
		t.Fatal("an append past the file size limit succeeded")
	}

	if err := sink.Append(recs[1]); err != nil {
		t.Fatal(err)
	}
	rs, err := LoadRecords(path)
	if err != nil {
		t.Fatalf("checkpoint after a failed and a retried append: %v", err)
	}
	if got := len(rs.Records()); got != 2 {
		t.Fatalf("loaded %d records, want 2", got)
	}
}

// setLimit stores v in an Rlimit field, whose integer type differs between
// platforms.
func setLimit[T ~int64 | ~uint64](field *T, v int64) { *field = T(v) }
