package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary, recorded by the
// benchmark's own wrappers around the calls into each layer. Times are
// nanoseconds since the tracer started.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // noSpan for a root
	Name   string `json:"name"`
	Op     int64  `json:"op"` // the op the span served, noOp for none
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

const (
	noSpan = -1
	noOp   = int64(-1)
)

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced phases run the same code with every span call a
// no-op.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Op: op, Start: now, End: now})
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// setOp attributes a finished span to an op learned after it ended (a
// lease RPC returns before the worker knows which point it leased).
func (t *tracer) setOp(id int, op int64) {
	if t == nil || id == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[id].Op = op
	t.mu.Unlock()
}

func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

func (t *tracer) writeJSON(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// spanTable indexes a span snapshot: children per span and self times.
type spanTable struct {
	spans []Span
	kids  [][]int
	self  []int64
}

// newSpanTable computes every span's self time: its duration minus the
// part of its interval its children cover. Children may overlap each
// other (two workers under one root), so the union of their intervals is
// subtracted, clipped to the parent's interval.
func newSpanTable(spans []Span) *spanTable {
	st := &spanTable{spans: spans, kids: make([][]int, len(spans)), self: make([]int64, len(spans))}
	for _, s := range spans {
		if s.Parent != noSpan {
			st.kids[s.Parent] = append(st.kids[s.Parent], s.ID)
		}
	}
	for i, s := range spans {
		iv := make([][2]int64, 0, len(st.kids[i]))
		for _, k := range st.kids[i] {
			iv = append(iv, [2]int64{spans[k].Start, spans[k].End})
		}
		st.self[i] = s.End - s.Start - covered(iv, s.Start, s.End)
	}
	return st
}

// covered returns the length of the union of the intervals, clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	runS, runE := lo, lo
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if s > runE {
			total += runE - runS
			runS, runE = s, e
		} else if e > runE {
			runE = e
		}
	}
	return total + runE - runS
}

// named returns the spans with the given name.
func (st *spanTable) named(name string) []Span {
	var out []Span
	for _, s := range st.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// totalS sums the durations of the named spans, in seconds.
func (st *spanTable) totalS(name string) float64 {
	var ns int64
	for _, s := range st.named(name) {
		ns += s.End - s.Start
	}
	return float64(ns) / 1e9
}

// selfS sums the self times of the named spans, in seconds.
func (st *spanTable) selfS(name string) float64 {
	var ns int64
	for _, s := range st.spans {
		if s.Name == name {
			ns += st.self[s.ID]
		}
	}
	return float64(ns) / 1e9
}

// durationsMs lists the durations of the named spans in milliseconds.
func (st *spanTable) durationsMs(name string) []float64 {
	var out []float64
	for _, s := range st.named(name) {
		out = append(out, float64(s.End-s.Start)/1e6)
	}
	return out
}

// unattributed is the share of the root span's wall time under no layer
// span. Layer spans are named layer.call ("radio.run", "rpc.lease"); the
// benchmark's own container spans ("phase", "trial", "worker") carry no
// layer and do not count.
func (st *spanTable) unattributed(root int) float64 {
	r := st.spans[root]
	var iv [][2]int64
	for _, s := range st.spans {
		if strings.Contains(s.Name, ".") {
			iv = append(iv, [2]int64{s.Start, s.End})
		}
	}
	return 1 - ratio(float64(covered(iv, r.Start, r.End)), float64(r.End-r.Start))
}

// percentile returns the nearest-rank q-quantile of xs (0 for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[max(rank, 1)-1]
}

// smoothedPercentile is the mean of the order statistics within ⌊√n⌋/2
// ranks of the nearest-rank q-quantile of xs (0 for no samples). The points
// of a campaign come from 37 experiments, and the nearest rank jumps between
// neighbours whose times differ by several percent; on six campaign-reduced
// runs, averaging about √n of them cut the run-to-run spread of p50 from 13%
// to 6% and of p90 from 14% to 9%.
func smoothedPercentile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	r := max(int(math.Ceil(q*float64(n))), 1) - 1
	k := int(math.Sqrt(float64(n))) / 2
	lo, hi := max(r-k, 0), min(r+k+1, n)
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// tailQuantile is the percentile rule: the highest of p50, p90, p99 and
// p99.9 that has at least ten samples beyond it, or 0 when even the median
// has fewer.
func tailQuantile(n int) float64 {
	best := 0.0
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			best = q
		}
	}
	return best
}

// quartiles returns the first and third quartiles as Python's
// statistics.quantiles(xs, n=4) gives them (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	switch n := len(s); {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
