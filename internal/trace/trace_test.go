package trace

import (
	"bytes"
	"encoding/json"
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
	// Round 1: node 0 transmits, node 1 receives.
	tx1 := rec.Transmissions(1)
	if len(tx1) != 1 || tx1[0] != 0 {
		t.Fatalf("round-1 transmitters %v", tx1)
	}
	rx1 := rec.Deliveries(1)
	if len(rx1) != 1 || rx1[0] != 1 {
		t.Fatalf("round-1 deliveries %v", rx1)
	}
	// Round 2: nodes 0,1 transmit; node 2 receives.
	if len(rec.Transmissions(2)) != 2 {
		t.Fatalf("round-2 transmitters %v", rec.Transmissions(2))
	}
	if got := rec.InformedAt(3); got != 3 {
		t.Fatalf("node 3 informed at %d", got)
	}
	if got := rec.InformedAt(0); got != -1 {
		t.Fatalf("source InformedAt %d, want -1 (informed at round 0, before tracing)", got)
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
