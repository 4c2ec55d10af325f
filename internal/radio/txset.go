package radio

import (
	"slices"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TxSet is the shared-draw building block behind every Bernoulli-phase
// protocol: the current round's transmitter list, drawn exactly once in
// BeginRound. The engine reads only that list (AppendTransmitters copies
// it); ShouldTransmit, the paper-literal per-node oracle, scans it.
// Centralising it keeps the batch/scalar equivalence contract in one place
// instead of six protocols.
type TxSet struct {
	pending []graph.NodeID

	// Cross-round stream state (the stream-draw contract, see
	// DrawListStream): gap is the number of candidate positions left to
	// skip before the next selected position of the concatenated
	// Bernoulli(streamQ) stream. Valid only while streamOK; a draw with a
	// different probability restarts the stream (the remainder of a
	// Geometric(q') overshoot is memoryless only for q').
	gap      int
	streamQ  float64
	streamOK bool
}

// Reset readies the set for a fresh run: it empties the list, keeping its
// capacity (the allocation-free trial-loop contract), and drops the carried
// stream gap.
func (s *TxSet) Reset() {
	s.pending = s.pending[:0]
	s.streamOK = false
}

// BeginRound clears the list for a new round.
func (s *TxSet) BeginRound() { s.pending = s.pending[:0] }

// Add puts v into the round's list.
func (s *TxSet) Add(v graph.NodeID) { s.pending = append(s.pending, v) }

// AddAll puts every node of list into the round's list (the flood phases).
func (s *TxSet) AddAll(list []graph.NodeID) { s.pending = append(s.pending, list...) }

// DrawList skip-samples the candidate list with per-node probability p into
// the round's list: one Geometric draw per selected node plus one overshoot,
// instead of one Bernoulli per candidate.
func (s *TxSet) DrawList(r *rng.RNG, list []graph.NodeID, p float64) {
	it := r.SkipSample(len(list), p)
	for i, ok := it.Next(); ok; i, ok = it.Next() {
		s.Add(list[i])
	}
}

// ensureStream primes the carried gap for probability q, restarting the
// stream when q changed since the carry was drawn.
func (s *TxSet) ensureStream(r *rng.RNG, q float64) {
	if !s.streamOK || s.streamQ != q {
		s.gap = r.Geometric(q)
		s.streamQ = q
		s.streamOK = true
	}
}

// DrawListStream is DrawList under the cross-round stream contract: the
// rounds of one uniform-probability phase are treated as a single
// concatenated Bernoulli(q) stream over the per-round candidate lists, so
// each round's trailing geometric overshoot carries into the next round
// with the same q instead of being redrawn. A fully silent round therefore
// consumes NO randomness (the carried gap just shrinks by the candidate
// count). The contract fixes how much randomness every round consumes, and
// every golden result depends on that; it does not exist for skipping,
// which only FixedProb still does (StreamSilentRounds). Per-round
// marginals are unchanged: every candidate is still selected independently
// with probability q.
func (s *TxSet) DrawListStream(r *rng.RNG, list []graph.NodeID, q float64) {
	s.drawStream(r, list, q, false)
}

// RetireListStream is DrawListStream for candidates that retire on
// transmitting (Algorithm 1's Phase 3): it draws the same selection from
// the same randomness, removes the selected candidates from list in place,
// and returns the survivors in their original order. Only the segments
// between selected positions are copied, so a silent round costs O(1).
func (s *TxSet) RetireListStream(r *rng.RNG, list []graph.NodeID, q float64) []graph.NodeID {
	return s.drawStream(r, list, q, true)
}

// drawStream is the one stream loop behind DrawListStream and
// RetireListStream; with retire set it compacts the unselected candidates
// to the front of list and returns them, otherwise it returns list as is.
func (s *TxSet) drawStream(r *rng.RNG, list []graph.NodeID, q float64, retire bool) []graph.NodeID {
	k := len(list)
	if q >= 1 {
		// Degenerate flood round: everyone transmits, no randomness, and the
		// carried gap (if any) is untouched.
		s.AddAll(list)
		if retire {
			return list[:0]
		}
		return list
	}
	if q <= 0 || k == 0 {
		return list
	}
	s.ensureStream(r, q)
	pos, keep := 0, 0 // list[:keep] are survivors; list[keep:pos] is free
	for pos+s.gap < k {
		sel := pos + s.gap
		if retire {
			if keep != pos {
				copy(list[keep:], list[pos:sel])
			}
			keep += sel - pos
		}
		s.Add(list[sel])
		pos = sel + 1
		s.gap = r.Geometric(q)
	}
	s.gap -= k - pos
	if !retire || keep == pos {
		return list
	}
	return list[:keep+copy(list[keep:], list[pos:])]
}

// DrawRangeStream is DrawListStream over the id range [0, n) — the gossip
// case, where every node is a candidate.
func (s *TxSet) DrawRangeStream(r *rng.RNG, n int, q float64) {
	if q >= 1 {
		for v := 0; v < n; v++ {
			s.Add(graph.NodeID(v))
		}
		return
	}
	if q <= 0 || n == 0 {
		return
	}
	s.ensureStream(r, q)
	pos := 0
	for pos+s.gap < n {
		pos += s.gap
		s.Add(graph.NodeID(pos))
		pos++
		s.gap = r.Geometric(q)
	}
	s.gap -= n - pos
}

// StreamSilentRounds consumes up to max whole silent rounds of k candidates
// each from the carried gap and returns how many rounds were verified
// silent — the O(1) cross-round skip: a round is silent iff the gap spans
// its whole candidate window, so a span of m silent rounds is m·k positions
// subtracted from the gap with no RNG draws at all. A return of m < max
// means the next round has a selection pending (or the call does not apply:
// k == 0, q >= 1) and must be drawn normally via DrawListStream /
// DrawRangeStream, which continues from the same gap. Only
// FixedProb.SkipSilent calls it; it goes with UniformRound in ROADMAP item
// 10 (the next change to bench/).
func (s *TxSet) StreamSilentRounds(r *rng.RNG, k int, q float64, max int) int {
	if max <= 0 || k <= 0 || q >= 1 {
		return 0
	}
	if q <= 0 {
		return max // nothing is ever selected; no randomness involved
	}
	s.ensureStream(r, q)
	m := s.gap / k
	if m > max {
		m = max
	}
	s.gap -= m * k
	return m
}

// Contains reports whether v is in the round's list, the ShouldTransmit
// body: a scan of the list, O(|list|) per call. The engine never asks
// ShouldTransmit of a BatchBroadcaster, and every TxSet protocol is one, so
// only the shared-draw oracle test and callers that forward the scalar
// decision by hand reach it.
func (s *TxSet) Contains(v graph.NodeID) bool { return slices.Contains(s.pending, v) }

// AppendTo appends the round's list to dst (the AppendTransmitters body).
func (s *TxSet) AppendTo(dst []graph.NodeID) []graph.NodeID { return append(dst, s.pending...) }

// Pending returns this round's selected list in selection order (aliases
// internal storage; valid until the next BeginRound).
func (s *TxSet) Pending() []graph.NodeID { return s.pending }

// WindowQueue is the activity-window queue shared by the window-based
// protocols (GeneralBroadcast, FixedProb): nodes enter in informing order
// with their informing round beside them, and because informing rounds are
// non-decreasing along that order, window expiry always pops from the
// head. The queue is the protocols' only record of who is informed and
// when.
type WindowQueue struct {
	nodes []graph.NodeID
	at    []int // at[i] is the round nodes[i] was informed in
	head  int
}

// Reset empties the queue for a fresh run, keeping its capacity.
func (q *WindowQueue) Reset() {
	q.nodes = q.nodes[:0]
	q.at = q.at[:0]
	q.head = 0
}

// Push appends v, informed in round; rounds must not decrease from one
// Push to the next.
func (q *WindowQueue) Push(v graph.NodeID, round int) {
	q.nodes = append(q.nodes, v)
	q.at = append(q.at, round)
}

// Expire pops every node whose activity window [at+1, at+window] has
// passed as of round.
func (q *WindowQueue) Expire(window, round int) {
	for q.head < len(q.nodes) && q.at[q.head]+window < round {
		q.head++
	}
}

// HeadRound returns the informing round of the oldest live node, the next
// to expire. Valid only while Live is non-empty.
func (q *WindowQueue) HeadRound() int { return q.at[q.head] }

// Live returns the not-yet-expired nodes in informing order.
func (q *WindowQueue) Live() []graph.NodeID { return q.nodes[q.head:] }
