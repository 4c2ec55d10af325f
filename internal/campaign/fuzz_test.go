package campaign

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzRepairJSONL runs RepairJSONL over arbitrary bytes with a line check
// that accepts only valid JSON. It never panics. A refused repair leaves
// the file unchanged. A successful one cuts exactly the torn tail, leaving
// a newline-terminated prefix of the input, and a second repair finds no
// torn tail and the same record count.
func FuzzRepairJSONL(f *testing.F) {
	validJSON := func(line []byte) error {
		if !json.Valid(line) {
			return errors.New("not JSON")
		}
		return nil
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "stream.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := RepairJSONL(path, validJSON)
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		if err != nil {
			if !bytes.Equal(got, data) {
				t.Fatalf("refused repair (%v) changed the file to %q", err, got)
			}
			return
		}
		if !bytes.HasPrefix(data, got) || (len(got) > 0 && got[len(got)-1] != '\n') {
			t.Fatalf("repair left %q, not a newline-terminated prefix of %q", got, data)
		}
		if int64(len(got))+rep.TornTailBytes != int64(len(data)) {
			t.Fatalf("repair kept %d of %d bytes but reported a %d-byte torn tail", len(got), len(data), rep.TornTailBytes)
		}
		again, err := RepairJSONL(path, validJSON)
		if err != nil || again.TornTailBytes != 0 || again.Records != rep.Records {
			t.Fatalf("second repair: %+v, %v; want no torn tail and the %d records of the first", again, err, rep.Records)
		}
	})
}
