package radio

import (
	"math/bits"

	"repro/internal/graph"
)

// denseState is the word-parallel dense delivery kernel. The protocols'
// mid-phase — nearly every informed node transmitting — is where a broadcast
// run spends most of its wall clock: Σ outdeg(transmitter) approaches m, so
// the per-edge work dominates everything else. The serial push kernel pays,
// per edge, a random 4-byte counter load, a data-dependent branch (first
// touch?), a possible list append, and a counter store; this kernel replaces
// all of that with branch-free carry-save accumulation into one slice of
// word pairs, one pair per 64 receivers:
//
//	h.twice |= h.once & bit    // second-or-later hit → saturated carry
//	h.once  |= bit             // first hit
//
// The two words of a pair sit side by side, so an edge's mark reads and
// writes one 16-byte pair in one cache line: no branches, no touched list,
// and a working set of n/4 bytes instead of 4n — at n = 262144 it fits in
// L2. What is left is the rows themselves, which at that size sit in DRAM
// and are each read once, so the kernel gathers four transmitter CSR rows
// at a time: it walks the shortest row's length in lockstep, one
// hand-written mark per row per step, then finishes the four longer tails,
// and takes the last 0–3 transmitters one row at a time. The four loads of
// a step are independent, so four row misses are in flight instead of one;
// the marks are order-independent (hit at least once, hit at least twice),
// so the interleaving changes no delivered id, no order and no collision
// count. Resolution then runs 64 receivers at a time: under the binary
// collision rule a receiver decodes iff it was hit exactly once, so per pair
//
//	delivered = h.once &^ h.twice &^ informed
//	collisions += popcount(h.twice)
//
// and the delivered ids stream out of per-word popcount iteration already in
// ascending order — the same sorted-output contract the other kernels meet.
// The same O(n/64) pass reads the pairs in order and zeroes them, so the
// kernel allocates nothing and touches no per-node state in steady state.
//
// Admission: under KernelAuto the engine runs this kernel on a CSR graph
// once the transmitters' out-degree sum reaches ⌈n/64⌉, the word count of
// that resolution pass — from there the per-edge saving over push (no
// counter array, no touched list, no sort of the delivered ids) pays for
// the pass. Pull still wins first whenever its estimate is cheaper (see
// chooseKernel).
//
// Exactness: the twice words mark every receiver with ≥ 2 hits, so the
// collision count covers all receivers (transmitter-side exact, like push
// and parallel push — the kernel stays legal under RecordHistory and
// Tracer). The carry saturates at two, which is only correct when "two
// hits" already decides the round; the engine therefore restricts this
// kernel to channel models with maxHits == 1 and no per-edge filter
// (Binary, Fade, Jam — receiver vetoes are applied by the engine after the
// kernel), falling back to the counting kernels otherwise (SINR capture,
// per-edge loss).
type denseState struct {
	hits []hitPair      // hits[w] marks receivers 64w … 64w+63
	out  []graph.NodeID // delivered-output scratch, reused across rounds
}

// hitPair is one word of carry-save marks: once holds the receivers hit at
// least once, twice those hit at least twice.
type hitPair struct{ once, twice uint64 }

func newDenseState(n int) *denseState {
	return &denseState{hits: make([]hitPair, (n+63)/64)}
}

// denseOK reports whether the word-parallel kernel resolves the given
// channel capabilities exactly: a saturating two-hit carry can only stand in
// for the full hit count when one concurrent signal is the decoding limit
// and every edge's signal counts.
func denseOK(caps channelCaps) bool {
	return caps.maxHits == 1 && caps.edgeOK == nil
}

// deliver accumulates one round's transmissions carry-save and resolves all
// receivers word-parallel. Callers must have checked denseOK(caps) — the
// kernel ignores caps entirely (it IS the binary rule). Returns the newly
// informed nodes in ascending id order and the number of receivers that
// experienced a collision (≥ 2 hits, counted at every receiver). The
// returned slice is scratch, valid until the next deliver call.
func (d *denseState) deliver(g *graph.Digraph, transmitters []graph.NodeID, informed Bitset) (delivered []graph.NodeID, collisions int) {
	hits := d.hits
	// Four rows at a time, in lockstep up to the shortest one's length, then
	// the four tails; the last 0–3 rows one at a time.
	txs := transmitters
	for ; len(txs) >= 4; txs = txs[4:] {
		r0, r1 := g.Out(txs[0]), g.Out(txs[1])
		r2, r3 := g.Out(txs[2]), g.Out(txs[3])
		k := min(len(r0), len(r1), len(r2), len(r3))
		a0, a1, a2, a3 := r0[:k], r1[:k], r2[:k], r3[:k]
		for j, w0 := range a0 {
			w1, w2, w3 := a1[j], a2[j], a3[j]
			h := &hits[uint32(w0)>>6]
			m := uint64(1) << (uint32(w0) & 63)
			h.twice |= h.once & m
			h.once |= m
			h = &hits[uint32(w1)>>6]
			m = uint64(1) << (uint32(w1) & 63)
			h.twice |= h.once & m
			h.once |= m
			h = &hits[uint32(w2)>>6]
			m = uint64(1) << (uint32(w2) & 63)
			h.twice |= h.once & m
			h.once |= m
			h = &hits[uint32(w3)>>6]
			m = uint64(1) << (uint32(w3) & 63)
			h.twice |= h.once & m
			h.once |= m
		}
		markRow(hits, r0[k:])
		markRow(hits, r1[k:])
		markRow(hits, r2[k:])
		markRow(hits, r3[k:])
	}
	for _, u := range txs {
		markRow(hits, g.Out(u))
	}

	// Resolution: one pass over the pairs computes deliveries and collision
	// counts and clears the marks for the next round. Rows only ever
	// contain valid ids < n, so no tail masking is needed.
	delivered = d.out[:0]
	for wi := range hits {
		h := hits[wi]
		collisions += bits.OnesCount64(h.twice)
		if newBits := h.once &^ h.twice &^ informed[wi]; newBits != 0 {
			base := wi << 6
			for newBits != 0 {
				delivered = append(delivered, graph.NodeID(base+bits.TrailingZeros64(newBits)))
				newBits &= newBits - 1
			}
		}
		hits[wi] = hitPair{}
	}
	d.out = delivered
	return delivered, collisions
}

// markRow applies one carry-save mark per receiver in row: a receiver's
// twice bit is set once it is hit a second time, its once bit at the first
// hit.
func markRow(hits []hitPair, row []graph.NodeID) {
	for _, w := range row {
		h := &hits[uint32(w)>>6]
		m := uint64(1) << (uint32(w) & 63)
		h.twice |= h.once & m
		h.once |= m
	}
}
