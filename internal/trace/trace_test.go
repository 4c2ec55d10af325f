package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

func runTraced(t *testing.T, tracer radio.Tracer) *radio.Result {
	t.Helper()
	// Directed path 0->1->2->3 flooded: deterministic, one tx per round.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	return radio.RunBroadcast(g, 0, baseline.Flood{}, rng.New(1), radio.Options{
		MaxRounds: 3, Tracer: tracer, StopWhenInformed: true,
	})
}

func TestRecorderCapturesEvents(t *testing.T) {
	rec := &Recorder{}
	res := runTraced(t, rec)
	if !res.Completed() {
		t.Fatal("run incomplete")
	}
	// Round r: nodes 0..r-1 transmit and node r is informed; the source,
	// informed at round 0 before tracing, is never delivered to.
	want := []Event{
		{Kind: "round", Round: 1, Node: -1},
		{Kind: "tx", Round: 1, Node: 0},
		{Kind: "rx", Round: 1, Node: 1},
		{Kind: "end", Round: 1, Transmitters: 1, Delivered: 1},
		{Kind: "round", Round: 2, Node: -1},
		{Kind: "tx", Round: 2, Node: 0},
		{Kind: "tx", Round: 2, Node: 1},
		{Kind: "rx", Round: 2, Node: 2},
		{Kind: "end", Round: 2, Transmitters: 2, Delivered: 1},
		{Kind: "round", Round: 3, Node: -1},
		{Kind: "tx", Round: 3, Node: 0},
		{Kind: "tx", Round: 3, Node: 1},
		{Kind: "tx", Round: 3, Node: 2},
		{Kind: "rx", Round: 3, Node: 3},
		{Kind: "end", Round: 3, Transmitters: 3, Delivered: 1},
	}
	if !reflect.DeepEqual(rec.Events, want) {
		t.Fatalf("events\n%+v\nwant\n%+v", rec.Events, want)
	}
}

func TestJSONLStream(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONL(&buf)
	runTraced(t, tr)
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// 3 rounds x (round + >=1 tx + rx + end) events.
	if len(lines) < 12 {
		t.Fatalf("only %d JSONL lines", len(lines))
	}
	kinds := map[string]int{}
	for _, line := range lines {
		var e Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		kinds[e.Kind]++
	}
	if kinds["round"] != 3 || kinds["end"] != 3 || kinds["rx"] != 3 || kinds["tx"] != 6 {
		t.Fatalf("event kinds %v", kinds)
	}
}

func TestJSONLStickyError(t *testing.T) {
	tr := NewJSONL(failWriter{})
	tr.RoundStart(1)
	if tr.Err() == nil {
		t.Fatal("expected sticky error")
	}
	tr.Transmit(1, 0) // must not panic after error
	if tr.Err() == nil {
		t.Fatal("error lost")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

var errWrite = &writeErr{}

type writeErr struct{}

func (*writeErr) Error() string { return "write failed" }
