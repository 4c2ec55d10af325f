package radio

import (
	"math/bits"

	"repro/internal/graph"
)

// frontierState is the receiver-centric (pull) delivery kernel: the late
// phase of a broadcast has few uninformed nodes left, so iterating the
// uninformed frontier's IN-edges against a transmitter bitset costs
// Σ deg(uninformed) per round instead of the push kernel's
// Σ deg(transmitter) — the direction-optimizing idea of Beamer et al.'s
// BFS, applied to the collision rule. Because the frontier list is kept in
// ascending id order, delivered nodes come out sorted for free (the push
// kernel pays a sort for the same contract).
//
// The kernel is exact on the informed trajectory: an uninformed node
// receives iff exactly one in-neighbour transmits, identically to push.
// The collision count, however, covers only the receivers the kernel
// examines — the uninformed frontier — so informed-side collisions are not
// counted. The engine therefore only selects this kernel when no consumer
// needs transmitter-side collision counts (no RecordHistory, no Tracer; see
// the Result.Collisions contract).
type frontierState struct {
	txMark Bitset         // transmitter membership, set/cleared per round
	list   []graph.NodeID // uninformed nodes, ascending id order
	ok     bool           // list is in sync with the session's informed set
	out    []graph.NodeID // delivered-output scratch, reused across rounds
	row    []graph.NodeID // in-row buffer for implicit graphs
}

func newFrontierState(n int) *frontierState {
	return &frontierState{txMark: NewBitset(n)}
}

// reset invalidates the frontier for a fresh session on the same nodes.
func (f *frontierState) reset() {
	f.txMark.Reset()
	f.list = f.list[:0]
	f.ok = false
}

// forEachUninformed enumerates the node ids NOT in the informed bitset over
// [0, n), in ascending order: one pass over the inverted words with the
// tail word masked to n. Shared by the frontier rebuild and the pull-cost
// base so the two can never drift apart.
func forEachUninformed(informed Bitset, n int, fn func(v graph.NodeID)) {
	for w, word := range informed {
		inv := ^word
		base := w << 6
		// Mask off the bits beyond n in the last word.
		if rem := n - base; rem < 64 {
			if rem <= 0 {
				break
			}
			inv &= (1 << uint(rem)) - 1
		}
		for inv != 0 {
			b := bits.TrailingZeros64(inv)
			fn(graph.NodeID(base + b))
			inv &= inv - 1
		}
	}
}

// sync rebuilds the frontier list from the informed bitset when stale: one
// pass over the bitset words enumerating zero bits, O(n/64 + |frontier|).
// The engine calls it lazily, on the first round the pull kernel is
// selected; from then on remove keeps the list current incrementally.
func (f *frontierState) sync(informed Bitset, n int) {
	if f.ok {
		return
	}
	f.list = f.list[:0]
	forEachUninformed(informed, n, func(v graph.NodeID) {
		f.list = append(f.list, v)
	})
	f.ok = true
}

// deliver applies the channel's reception rule receiver-centrically for one
// round: each frontier node counts its transmitting in-neighbours whose
// signal survives the edge filter (early exit at maxHits+1 — one past the
// capture limit, two under the binary model); 1..maxHits means reception.
// Returns the newly informed nodes in ascending id order and the number of
// UNINFORMED nodes that experienced a collision. The frontier list itself
// is not modified — the engine removes the finally-delivered nodes (after
// channel, jamming, schedule and battery filters) with remove, so a vetoed
// reception stays on the frontier. The returned slice is scratch, valid
// until the next deliver call.
func (f *frontierState) deliver(g graph.InRows, round int, transmitters []graph.NodeID, caps channelCaps) (delivered []graph.NodeID, collisions int) {
	if len(f.list) == 0 {
		// Pull examines only frontier nodes: with none left, no transmitter
		// needs marking.
		return f.out[:0], 0
	}
	dg, _ := g.(*graph.Digraph)
	for _, u := range transmitters {
		f.txMark.Set(u)
	}
	limit := int(caps.maxHits) + 1
	delivered = f.out[:0]
	for _, v := range f.list {
		var in []graph.NodeID
		if dg != nil {
			in = dg.In(v)
		} else {
			f.row = g.AppendIn(v, f.row[:0])
			in = f.row
		}
		hits := 0
		if caps.edgeOK == nil {
			for _, u := range in {
				if f.txMark.Get(u) {
					hits++
					if hits == limit {
						break
					}
				}
			}
		} else {
			for _, u := range in {
				if f.txMark.Get(u) && caps.edgeOK(round, u, v) {
					hits++
					if hits == limit {
						break
					}
				}
			}
		}
		if hits == limit {
			collisions++
		} else if hits >= 1 {
			delivered = append(delivered, v)
		}
	}
	for _, u := range transmitters {
		f.txMark.Clear(u)
	}
	f.out = delivered
	return delivered, collisions
}

// remove drops the delivered nodes from the frontier list in one merge pass
// (both inputs are ascending). Call with the round's FINAL delivered list,
// after every engine-side filter.
func (f *frontierState) remove(delivered []graph.NodeID) {
	if !f.ok || len(delivered) == 0 {
		return
	}
	keep := f.list[:0]
	j := 0
	for _, v := range f.list {
		for j < len(delivered) && delivered[j] < v {
			j++
		}
		if j < len(delivered) && delivered[j] == v {
			j++
			continue
		}
		keep = append(keep, v)
	}
	f.list = keep
}

// uninformedInSum returns Σ InDegree(v) over the uninformed nodes of an
// n-node session — the pull kernel's per-round cost estimate, recomputed per
// Run segment (the graph may change between segments) and maintained
// incrementally by the engine as nodes are informed. On a CSR it is M()
// minus the in-degrees of informedList, the session's informed nodes, so a
// fresh session pays for one node instead of n; implicit graphs have no edge
// count and scan the informed bitset's zero bits.
func uninformedInSum(g graph.InRows, n int, informed Bitset, informedList []graph.NodeID) int64 {
	if dg, ok := g.(*graph.Digraph); ok {
		sum := int64(dg.M())
		for _, v := range informedList {
			sum -= int64(dg.InDegree(v))
		}
		return sum
	}
	var sum int64
	forEachUninformed(informed, n, func(v graph.NodeID) {
		sum += int64(g.InDegree(v))
	})
	return sum
}

// outDegSum returns Σ OutDegree(u) over the transmitter set — the push
// kernel's exact per-round cost — or, once a partial sum exceeds lim, that
// partial sum. The engine passes priceLimit, above which chooseKernel
// returns the same kernel for every sum, so the partial sum settles the
// choice exactly as the full sum would. O(|tx|) at most from the CSR
// offsets on a materialized graph; implicit graphs pay a row scan per
// transmitter, which is why the engine consults it there only when the pull
// side is a live alternative (trackUnin).
func outDegSum(g graph.InRows, txs []graph.NodeID, lim int64) int64 {
	var sum int64
	if dg, ok := g.(*graph.Digraph); ok {
		for _, u := range txs {
			if sum += int64(dg.OutDegree(u)); sum > lim {
				return sum
			}
		}
		return sum
	}
	for _, u := range txs {
		if sum += int64(g.OutDegree(u)); sum > lim {
			return sum
		}
	}
	return sum
}

// priceLimit is the outDegSum limit of a round with tx transmitters:
// chooseKernel returns one kernel for every out-degree sum above it. With
// pull tracking, every sum above uninSum + tx selects pull, which is decided
// before dense; without it, only dense's admission at ⌈n/64⌉ reads the sum.
func priceLimit(n, tx int, uninSum int64, trackUnin bool) int64 {
	if trackUnin {
		return uninSum + int64(tx)
	}
	return int64(n+63)/64 - 1
}
