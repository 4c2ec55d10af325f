package sweep

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unicode/utf8"

	"repro/internal/rng"
)

func TestRunTrialsDeterministicAcrossWorkerCounts(t *testing.T) {
	fn := func(tr Trial) Metrics {
		r := rng.New(tr.Seed)
		return Metrics{"x": r.Float64(), "idx": float64(tr.Index)}
	}
	serial := RunTrials(64, 7, 1, fn)
	parallel := RunTrials(64, 7, 8, fn)
	for i := range serial["x"] {
		if serial["x"][i] != parallel["x"][i] {
			t.Fatalf("trial %d differs across worker counts", i)
		}
		if serial["idx"][i] != float64(i) {
			t.Fatalf("trial order broken at %d", i)
		}
	}
}

func TestRunTrialsAllTrialsExecute(t *testing.T) {
	var count int64
	RunTrials(100, 1, 4, func(tr Trial) Metrics {
		atomic.AddInt64(&count, 1)
		return Metrics{"one": 1}
	})
	if count != 100 {
		t.Fatalf("ran %d trials", count)
	}
}

func TestRunTrialsSeedsDistinct(t *testing.T) {
	out := RunTrials(50, 3, 4, func(tr Trial) Metrics {
		return Metrics{"seed": float64(tr.Seed % (1 << 52))}
	})
	seen := map[float64]bool{}
	for _, s := range out["seed"] {
		if seen[s] {
			t.Fatal("duplicate trial seed")
		}
		seen[s] = true
	}
}

func TestRunTrialsMissingMetricBecomesNaN(t *testing.T) {
	out := RunTrials(4, 1, 2, func(tr Trial) Metrics {
		m := Metrics{"always": 1}
		if tr.Index == 2 {
			m["sometimes"] = 5
		}
		return m
	})
	if len(out["sometimes"]) != 4 {
		t.Fatal("length mismatch")
	}
	for i, v := range out["sometimes"] {
		if i == 2 && v != 5 {
			t.Fatalf("trial 2 value %v", v)
		}
		if i != 2 && !math.IsNaN(v) {
			t.Fatalf("trial %d should be NaN, got %v", i, v)
		}
	}
	if got := MeanOf(out, "sometimes"); got != 5 {
		t.Fatalf("MeanOf skipping NaN = %v", got)
	}
}

func TestRunTrialsPanicsOnZeroTrials(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	RunTrials(0, 1, 1, func(Trial) Metrics { return nil })
}

func TestTableMarkdown(t *testing.T) {
	tb := NewTable("Demo", "n", "rounds")
	tb.AddRow("1024", "17")
	tb.AddRow("2048", "19")
	tb.Note = "note line"
	md := tb.Markdown()
	for _, want := range []string{"### Demo", "| n ", "| rounds |", "| 1024 |", "note line"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
	lines := strings.Split(strings.TrimSpace(md), "\n")
	// Heading, blank, header, separator, 2 rows, blank, note.
	if len(lines) != 8 {
		t.Fatalf("markdown has %d lines:\n%s", len(lines), md)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("T", "a", "b")
	tb.AddRow("x,y", "plain")
	tb.AddRow(`quo"te`, "2")
	csv := tb.CSV()
	if !strings.Contains(csv, `"x,y",plain`) {
		t.Fatalf("comma cell not quoted: %s", csv)
	}
	if !strings.Contains(csv, `"quo""te",2`) {
		t.Fatalf("quote cell not escaped: %s", csv)
	}
	if !strings.HasPrefix(csv, "a,b\n") {
		t.Fatalf("csv header: %s", csv)
	}
}

func TestTablePanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no columns": func() { NewTable("x") },
		"bad row":    func() { NewTable("x", "a", "b").AddRow("1") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFormatF(t *testing.T) {
	cases := []struct {
		v    float64
		want string
	}{
		{3, "3"}, {3.14159, "3.14"}, {0.000123456, "0.000123"},
		{1e6, "1000000"}, {math.NaN(), "NaN"},
	}
	for _, c := range cases {
		if got := F(c.v); got != c.want {
			t.Fatalf("F(%v) = %q, want %q", c.v, got, c.want)
		}
	}
	if FInt(42) != "42" {
		t.Fatal("FInt")
	}
}

func TestRateOf(t *testing.T) {
	out := map[string][]float64{"ok": {1, 0, 1, 1}}
	if got := RateOf(out, "ok"); got != 0.75 {
		t.Fatalf("RateOf = %v", got)
	}
}

func TestMeanOfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown metric")
		}
	}()
	MeanOf(map[string][]float64{}, "missing")
}

func TestTableMarkdownRuneAlignment(t *testing.T) {
	// Multi-byte headers and cells (α, ≤, ·) must not skew column widths:
	// width is measured in runes, so every rendered row has the same rune
	// length and each column's pipes line up.
	tb := NewTable("Unicode", "α", "q ≤ 1/d", "n")
	tb.AddRow("0.5", "yes", "1024")
	tb.AddRow("0.25", "tx·p", "2")
	md := tb.Markdown()
	lines := strings.Split(strings.TrimSpace(md), "\n")
	rows := lines[2:6] // header, separator, two data rows
	want := utf8.RuneCountInString(rows[0])
	for i, row := range rows {
		if got := utf8.RuneCountInString(row); got != want {
			t.Fatalf("row %d has rune width %d, header has %d:\n%s", i, got, want, md)
		}
	}
	// Column boundaries must agree rune-for-rune between header and rows.
	hdrPipes := runeIndexesOf(rows[0], '|')
	for i, row := range []string{rows[2], rows[3]} {
		if got := runeIndexesOf(row, '|'); !intSlicesEqual(got, hdrPipes) {
			t.Fatalf("data row %d pipes at %v, header at %v:\n%s", i, got, hdrPipes, md)
		}
	}
}

func runeIndexesOf(s string, c rune) []int {
	var out []int
	i := 0
	for _, r := range s {
		if r == c {
			out = append(out, i)
		}
		i++
	}
	return out
}

func intSlicesEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChunkedDispatchCoversAllTrialsAtAwkwardSizes guards the chunked
// dispatch arithmetic: trial counts that do not divide evenly into
// workers×8 chunks must still execute every index exactly once.
func TestChunkedDispatchCoversAllTrialsAtAwkwardSizes(t *testing.T) {
	for _, trials := range []int{1, 2, 7, 63, 64, 65, 1000} {
		for _, workers := range []int{1, 3, 8, 64} {
			var mu sync.Mutex
			seen := make(map[int]int)
			RunTrials(trials, 9, workers, func(tr Trial) Metrics {
				mu.Lock()
				seen[tr.Index]++
				mu.Unlock()
				return Metrics{"i": float64(tr.Index)}
			})
			if len(seen) != trials {
				t.Fatalf("trials=%d workers=%d: %d distinct indices executed", trials, workers, len(seen))
			}
			for i, c := range seen {
				if c != 1 {
					t.Fatalf("trials=%d workers=%d: index %d executed %d times", trials, workers, i, c)
				}
			}
		}
	}
}

// BenchmarkRunTrialsDispatch measures the per-trial dispatch overhead with
// a near-free trial body — the regime where the old one-index-per-
// unbuffered-send loop was dominated by channel handoffs. Chunked ranges
// amortise the channel operation over ~8 trials.
func BenchmarkRunTrialsDispatch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		RunTrials(4096, 7, 4, func(tr Trial) Metrics { return nil })
	}
}
