package main

import (
	"time"

	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// protoStats accumulates the time and calls spent inside a protocol, seen
// from its radio.Broadcaster boundary. The engine calls OnInformed once per
// informed node (2^18 times per alg1-gnp trial), so only every
// informSample-th call is timed and the total is scaled up; every timed
// call has the clock's own cost subtracted.
type protoStats struct {
	beginNs, decideNs, skipNs      int64
	decideCalls, skipCalls, rounds int64
	informCalls, informTimed       int64
	informTimedNs                  int64
	clockNs                        int64 // cost of one time.Now + time.Since pair
}

const informSample = 16

// beginS, decideS, informS and skipS are the corrected layer times.
func (s *protoStats) beginS() float64 { return float64(max(s.beginNs-s.clockNs, 0)) / 1e9 }
func (s *protoStats) decideS() float64 {
	return float64(max(s.decideNs-s.decideCalls*s.clockNs, 0)) / 1e9
}
func (s *protoStats) skipS() float64 { return float64(max(s.skipNs-s.skipCalls*s.clockNs, 0)) / 1e9 }
func (s *protoStats) informS() float64 {
	timed := max(s.informTimedNs-s.informTimed*s.clockNs, 0)
	return ratio(float64(timed)*float64(s.informCalls), float64(s.informTimed)) / 1e9
}

func (s *protoStats) totalS() float64 { return s.beginS() + s.decideS() + s.informS() + s.skipS() }

// measureClockNs returns the median cost of one timed empty interval.
func measureClockNs() int64 {
	const n = 4001
	xs := make([]float64, n)
	for i := range xs {
		t := time.Now()
		xs[i] = float64(time.Since(t))
	}
	return int64(median(xs))
}

// wrapProto wraps p so every call into it is timed into st. The wrapper
// implements exactly the optional engine interfaces p implements
// (radio.BatchBroadcaster, radio.UniformRound), so the engine takes the
// same decision path and skips the same rounds as it would for p itself.
func wrapProto(p radio.Broadcaster, st *protoStats) radio.Broadcaster {
	base := &protoBase{p: p, st: st}
	b, isBatch := p.(radio.BatchBroadcaster)
	u, isUniform := p.(radio.UniformRound)
	switch {
	case isBatch && isUniform:
		return struct {
			*protoBase
			batchPart
			uniformPart
		}{base, batchPart{b, st}, uniformPart{u, st}}
	case isBatch:
		return struct {
			*protoBase
			batchPart
		}{base, batchPart{b, st}}
	case isUniform:
		return struct {
			*protoBase
			uniformPart
		}{base, uniformPart{u, st}}
	default:
		return base
	}
}

type protoBase struct {
	p  radio.Broadcaster
	st *protoStats
}

func (w *protoBase) Name() string { return w.p.Name() }

func (w *protoBase) Begin(n int, src graph.NodeID, r *rng.RNG) {
	t := time.Now()
	w.p.Begin(n, src, r)
	w.st.beginNs += int64(time.Since(t))
}

func (w *protoBase) BeginRound(round int) {
	w.st.rounds++
	w.st.decideCalls++
	t := time.Now()
	w.p.BeginRound(round)
	w.st.decideNs += int64(time.Since(t))
}

func (w *protoBase) ShouldTransmit(round int, v graph.NodeID) bool {
	w.st.decideCalls++
	t := time.Now()
	ok := w.p.ShouldTransmit(round, v)
	w.st.decideNs += int64(time.Since(t))
	return ok
}

func (w *protoBase) OnInformed(round int, v graph.NodeID) {
	w.st.informCalls++
	if w.st.informCalls%informSample != 0 {
		w.p.OnInformed(round, v)
		return
	}
	t := time.Now()
	w.p.OnInformed(round, v)
	w.st.informTimedNs += int64(time.Since(t))
	w.st.informTimed++
}

func (w *protoBase) Quiesced(round int) bool {
	w.st.decideCalls++
	t := time.Now()
	q := w.p.Quiesced(round)
	w.st.decideNs += int64(time.Since(t))
	return q
}

type batchPart struct {
	b  radio.BatchBroadcaster
	st *protoStats
}

func (w batchPart) AppendTransmitters(round int, informed, dst []graph.NodeID) []graph.NodeID {
	w.st.decideCalls++
	t := time.Now()
	out := w.b.AppendTransmitters(round, informed, dst)
	w.st.decideNs += int64(time.Since(t))
	return out
}

type uniformPart struct {
	u  radio.UniformRound
	st *protoStats
}

func (w uniformPart) RoundProb(round int) (float64, bool) {
	w.st.decideCalls++
	t := time.Now()
	q, ok := w.u.RoundProb(round)
	w.st.decideNs += int64(time.Since(t))
	return q, ok
}

func (w uniformPart) SkipSilent(from, to int) int {
	w.st.skipCalls++
	t := time.Now()
	next := w.u.SkipSilent(from, to)
	w.st.skipNs += int64(time.Since(t))
	return next
}
