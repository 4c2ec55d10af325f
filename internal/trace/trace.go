// Package trace provides radio.Tracer implementations for recording and
// inspecting simulation runs: a JSONL event stream for external tools and an
// in-memory recorder for tests and ad-hoc analysis.
package trace

import (
	"encoding/json"
	"io"

	"repro/internal/graph"
)

// Event is one engine event in the JSONL stream. Kind is "round", "tx",
// "rx", or "end". Node is -1 for events that do not concern a single node
// ("round" and "end") — it cannot be omitted via omitempty because node id 0
// is a valid subject.
type Event struct {
	Kind  string `json:"kind"`
	Round int    `json:"round"`
	Node  int    `json:"node"`
	// Aggregates, set on "end" events only.
	Transmitters int `json:"transmitters,omitempty"`
	Delivered    int `json:"delivered,omitempty"`
	Collisions   int `json:"collisions,omitempty"`
}

// JSONL streams events as one JSON object per line. Errors are sticky and
// reported by Err (the radio engine's Tracer interface has no error
// channel, so the writer latches the first failure instead of panicking
// mid-simulation).
type JSONL struct {
	enc *json.Encoder
	err error
}

// NewJSONL creates a JSONL tracer writing to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Err returns the first write error, if any.
func (t *JSONL) Err() error { return t.err }

func (t *JSONL) emit(e Event) {
	if t.err == nil {
		t.err = t.enc.Encode(e)
	}
}

// RoundStart implements radio.Tracer.
func (t *JSONL) RoundStart(round int) { t.emit(Event{Kind: "round", Round: round, Node: -1}) }

// Transmit implements radio.Tracer.
func (t *JSONL) Transmit(round int, v graph.NodeID) {
	t.emit(Event{Kind: "tx", Round: round, Node: int(v)})
}

// Deliver implements radio.Tracer.
func (t *JSONL) Deliver(round int, v graph.NodeID) {
	t.emit(Event{Kind: "rx", Round: round, Node: int(v)})
}

// RoundEnd implements radio.Tracer.
func (t *JSONL) RoundEnd(round, transmitters, delivered, collisions int) {
	t.emit(Event{Kind: "end", Round: round,
		Transmitters: transmitters, Delivered: delivered, Collisions: collisions})
}

// Recorder keeps every event in memory, for tests and interactive digging.
type Recorder struct {
	Events []Event
}

// RoundStart implements radio.Tracer.
func (r *Recorder) RoundStart(round int) {
	r.Events = append(r.Events, Event{Kind: "round", Round: round, Node: -1})
}

// Transmit implements radio.Tracer.
func (r *Recorder) Transmit(round int, v graph.NodeID) {
	r.Events = append(r.Events, Event{Kind: "tx", Round: round, Node: int(v)})
}

// Deliver implements radio.Tracer.
func (r *Recorder) Deliver(round int, v graph.NodeID) {
	r.Events = append(r.Events, Event{Kind: "rx", Round: round, Node: int(v)})
}

// RoundEnd implements radio.Tracer.
func (r *Recorder) RoundEnd(round, transmitters, delivered, collisions int) {
	r.Events = append(r.Events, Event{Kind: "end", Round: round,
		Transmitters: transmitters, Delivered: delivered, Collisions: collisions})
}

// Transmissions returns the node ids that transmitted in the given round.
func (r *Recorder) Transmissions(round int) []graph.NodeID {
	var out []graph.NodeID
	for _, e := range r.Events {
		if e.Kind == "tx" && e.Round == round {
			out = append(out, graph.NodeID(e.Node))
		}
	}
	return out
}

// Deliveries returns the node ids first informed in the given round.
func (r *Recorder) Deliveries(round int) []graph.NodeID {
	var out []graph.NodeID
	for _, e := range r.Events {
		if e.Kind == "rx" && e.Round == round {
			out = append(out, graph.NodeID(e.Node))
		}
	}
	return out
}

// InformedAt returns the round in which v was first informed, or -1.
func (r *Recorder) InformedAt(v graph.NodeID) int {
	for _, e := range r.Events {
		if e.Kind == "rx" && e.Node == int(v) {
			return e.Round
		}
	}
	return -1
}
