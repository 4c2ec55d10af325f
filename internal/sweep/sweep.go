// Package sweep is the experiment harness: it fans independent simulation
// trials out over a worker pool with deterministic per-trial seeding, and
// renders result tables as markdown or CSV.
//
// Determinism contract: a trial's seed depends only on (baseSeed, trial
// index), never on scheduling, so parallel sweeps are bit-identical to
// serial ones — the property the rng and radio packages are built around.
package sweep

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/rng"
)

// Trial identifies one independent repetition.
type Trial struct {
	Index int
	Seed  uint64
	// Scratch is the per-worker scratch value produced by the factory given
	// to RunTrialsScratch (nil under plain RunTrials). All trials executed
	// by one worker goroutine see the same value, so buffers stored in it
	// are reused across trials without any cross-trial data races.
	Scratch any
}

// Metrics maps metric names to values for one trial.
type Metrics map[string]float64

// RunTrials executes fn for `trials` independent repetitions on `workers`
// goroutines (0 = GOMAXPROCS) and gathers per-metric samples in trial order.
// fn must be safe for concurrent invocation (each call gets its own seed;
// share nothing mutable).
func RunTrials(trials int, baseSeed uint64, workers int, fn func(Trial) Metrics) map[string][]float64 {
	return RunTrialsScratch(trials, baseSeed, workers, nil, fn)
}

// RunTrialsScratch is RunTrials with per-worker scratch: newScratch (when
// non-nil) runs once per worker goroutine and its value is handed to every
// trial that worker executes via Trial.Scratch. Determinism is unaffected —
// trial seeds still depend only on (baseSeed, index) — because scratch must
// only carry reusable buffers, never results.
func RunTrialsScratch(trials int, baseSeed uint64, workers int, newScratch func() any, fn func(Trial) Metrics) map[string][]float64 {
	if trials <= 0 {
		panic("sweep: trials must be positive")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > trials {
		workers = trials
	}
	results := make([]Metrics, trials)
	// Dispatch in chunked index ranges through a fully buffered channel: a
	// cheap trial then costs one channel receive per chunk of
	// trials/(8·workers) trials instead of a blocking unbuffered handoff
	// per trial (see BenchmarkRunTrialsDispatch). Eight chunks per worker
	// keeps the tail balanced when trial costs are uneven. Determinism is
	// untouched: seeds depend only on (baseSeed, index), whichever worker
	// executes a chunk.
	chunk := trials / (workers * 8)
	if chunk < 1 {
		chunk = 1
	}
	spans := make(chan [2]int, (trials+chunk-1)/chunk)
	for lo := 0; lo < trials; lo += chunk {
		hi := lo + chunk
		if hi > trials {
			hi = trials
		}
		spans <- [2]int{lo, hi}
	}
	close(spans)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc any
			if newScratch != nil {
				sc = newScratch()
			}
			for span := range spans {
				for i := span[0]; i < span[1]; i++ {
					results[i] = fn(Trial{Index: i, Seed: rng.SubSeed(baseSeed, uint64(i)), Scratch: sc})
				}
			}
		}()
	}
	wg.Wait()

	out := make(map[string][]float64)
	for i, m := range results {
		for k, v := range m {
			if _, ok := out[k]; !ok {
				out[k] = make([]float64, trials)
				for j := 0; j < i; j++ {
					out[k][j] = math.NaN() // metric absent in earlier trials
				}
			}
			out[k][i] = v
		}
		for k := range out {
			if _, ok := m[k]; !ok {
				out[k][i] = math.NaN()
			}
		}
	}
	return out
}

// Table is a rendered experiment result: an ordered set of columns and rows.
type Table struct {
	Title   string
	Note    string
	Columns []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, columns ...string) *Table {
	if len(columns) == 0 {
		panic("sweep: table needs columns")
	}
	return &Table{Title: title, Columns: columns}
}

// AddRow appends a row; the cell count must match the column count.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("sweep: row has %d cells, table has %d columns", len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Markdown renders the table as a GitHub-flavoured markdown table with a
// title heading and optional note. Column widths are measured in runes, not
// bytes, so cells holding multi-byte characters (α, ≤, ·) stay aligned.
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s\n\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if w := utf8.RuneCountInString(cell); w > widths[i] {
				widths[i] = w
			}
		}
	}
	writeRow := func(cells []string) {
		b.WriteString("|")
		for i, cell := range cells {
			// Pad by rune count ourselves: fmt's %-*s pads by bytes.
			b.WriteString(" ")
			b.WriteString(cell)
			b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(cell)))
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	b.WriteString("|")
	for _, w := range widths {
		b.WriteString(strings.Repeat("-", w+2))
		b.WriteString("|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Note != "" {
		fmt.Fprintf(&b, "\n%s\n", t.Note)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (cells containing commas
// or quotes are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeCell := func(c string) {
		if strings.ContainsAny(c, ",\"\n") {
			c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
		}
		b.WriteString(c)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(",")
			}
			writeCell(c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// F formats a float compactly for table cells: integers without decimals,
// small magnitudes with 3 significant digits.
func F(v float64) string {
	if math.IsNaN(v) {
		return "NaN"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.3g", v)
}

// FInt formats an integer cell.
func FInt(v int) string { return fmt.Sprintf("%d", v) }

// MeanOf returns the mean of the named metric, skipping NaNs. Panics if no
// valid samples exist.
func MeanOf(samples map[string][]float64, key string) float64 {
	xs, ok := samples[key]
	if !ok {
		panic("sweep: unknown metric " + key)
	}
	sum, n := 0.0, 0
	for _, x := range xs {
		if !math.IsNaN(x) {
			sum += x
			n++
		}
	}
	if n == 0 {
		panic("sweep: metric " + key + " has no valid samples")
	}
	return sum / float64(n)
}

// RateOf returns the fraction of trials where the named metric is non-zero
// (used for success rates recorded as 0/1).
func RateOf(samples map[string][]float64, key string) float64 {
	xs, ok := samples[key]
	if !ok {
		panic("sweep: unknown metric " + key)
	}
	hits, n := 0, 0
	for _, x := range xs {
		if math.IsNaN(x) {
			continue
		}
		n++
		if x != 0 {
			hits++
		}
	}
	if n == 0 {
		panic("sweep: metric " + key + " has no valid samples")
	}
	return float64(hits) / float64(n)
}
