package radio

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// TestTxSetResetReusesBuffer pins the allocation-free trial-loop contract:
// once a TxSet has been sized, Reset must not allocate again for the same
// (or any smaller) network.
func TestTxSetResetReusesBuffer(t *testing.T) {
	var s TxSet
	s.Reset(256)
	if allocs := testing.AllocsPerRun(100, func() { s.Reset(256) }); allocs != 0 {
		t.Fatalf("Reset(256) allocates %v per run after warm-up, want 0", allocs)
	}
	// Shrinking and re-growing within the original capacity must reuse too.
	if allocs := testing.AllocsPerRun(100, func() { s.Reset(64); s.Reset(256) }); allocs != 0 {
		t.Fatalf("Reset(64)+Reset(256) allocates %v per run, want 0", allocs)
	}
}

// TestTxSetResetClearsSentinels pins the correctness half of the reuse: a
// round sentinel written before Reset must not make Contains report a stale
// membership afterwards.
func TestTxSetResetClearsSentinels(t *testing.T) {
	var s TxSet
	s.Reset(16)
	s.BeginRound()
	s.Add(graph.NodeID(5), 9)
	if !s.Contains(5, 9) {
		t.Fatal("Add(5, round 9) not visible to Contains")
	}
	s.Reset(16)
	if s.Contains(5, 9) {
		t.Fatal("stale round sentinel survived Reset: node 5 still in round 9's set")
	}
	// The cleared array must behave exactly like a fresh one for round 1.
	s.BeginRound()
	if s.Contains(5, 1) || s.Contains(0, 1) {
		t.Fatal("fresh round reports phantom members after Reset")
	}
}

// TestTxPerNodeEmptyResult: a zero-value (or PerNodeTx-less) Result must
// report 0 transmissions per node, not NaN.
func TestTxPerNodeEmptyResult(t *testing.T) {
	var r Result
	if got := r.TxPerNode(); got != 0 || math.IsNaN(got) {
		t.Fatalf("zero-value Result.TxPerNode() = %v, want 0", got)
	}
	r.TotalTx = 7
	if got := r.TxPerNode(); got != 0 {
		t.Fatalf("PerNodeTx-less Result.TxPerNode() = %v, want 0", got)
	}
}

// TestRetireListStreamMatchesStatusFilter checks the retiring draw against
// the construction it replaces: DrawListStream followed by marking the
// selected candidates passive in a per-node status array and filtering the
// list. Over many rounds with StreamSilentRounds skips interleaved, both
// sides must select the same transmitters, keep the same survivors in the
// same order, carry the same gap (so the next round draws the same) and
// leave the RNG in the same state.
func TestRetireListStreamMatchesStatusFilter(t *testing.T) {
	for _, k := range []int{0, 1, 63, 64, 1000} {
		for _, q := range []float64{1e-4, 0.01, 0.5, 1} {
			t.Run(fmt.Sprintf("k=%d/q=%g", k, q), func(t *testing.T) {
				n := 3*k + 2
				list := make([]graph.NodeID, k)
				for i := range list {
					list[i] = graph.NodeID((7*i + 3) % n) // distinct, not sorted
				}
				var got, want TxSet
				got.Reset(n)
				want.Reset(n)
				gotList, wantList := slices.Clone(list), slices.Clone(list)
				gotR, wantR := rng.New(uint64(k)+11), rng.New(uint64(k)+11)
				passive := make([]bool, n)
				for round := 1; round <= 60; round++ {
					if round%4 == 0 {
						gs := got.StreamSilentRounds(gotR, len(gotList), q, 5)
						ws := want.StreamSilentRounds(wantR, len(wantList), q, 5)
						if gs != ws {
							t.Fatalf("round %d: skipped %d silent rounds, reference %d", round, gs, ws)
						}
						round += gs
					}
					got.BeginRound()
					gotList = got.RetireListStream(gotR, gotList, q, round)

					want.BeginRound()
					want.DrawListStream(wantR, wantList, q, round)
					if sel := want.Pending(); len(sel) > 0 {
						for _, v := range sel {
							passive[v] = true
						}
						keep := wantList[:0]
						for _, v := range wantList {
							if !passive[v] {
								keep = append(keep, v)
							}
						}
						wantList = keep
					}

					if !slices.Equal(got.Pending(), want.Pending()) {
						t.Fatalf("round %d: selected %v, reference %v", round, got.Pending(), want.Pending())
					}
					if !slices.Equal(gotList, wantList) {
						t.Fatalf("round %d: survivors %v, reference %v", round, gotList, wantList)
					}
					for _, v := range got.Pending() {
						if !got.Contains(v, round) {
							t.Fatalf("round %d: selected %d not a member", round, v)
						}
					}
				}
				// The carried gap shows in the next draw over a fresh list.
				fresh := make([]graph.NodeID, n)
				for i := range fresh {
					fresh[i] = graph.NodeID(i)
				}
				got.BeginRound()
				want.BeginRound()
				got.DrawListStream(gotR, fresh, q, 1000)
				want.DrawListStream(wantR, fresh, q, 1000)
				if !slices.Equal(got.Pending(), want.Pending()) {
					t.Fatalf("next draw %v, reference %v", got.Pending(), want.Pending())
				}
				if g, w := gotR.Uint64(), wantR.Uint64(); g != w {
					t.Fatalf("RNG state diverged: next word %#x, reference %#x", g, w)
				}
			})
		}
	}
}

// TestRetireListStreamAllocFree pins the retiring draw at 0 allocations on
// a warmed list: compaction happens in place and the pending set reuses its
// capacity.
func TestRetireListStreamAllocFree(t *testing.T) {
	const n = 1000
	master := make([]graph.NodeID, n)
	for i := range master {
		master[i] = graph.NodeID(i)
	}
	list := slices.Clone(master)
	var s TxSet
	s.Reset(n)
	r := rng.New(5)
	s.BeginRound()
	s.RetireListStream(r, list, 1, 1) // grow the pending set to n
	round := 1
	allocs := testing.AllocsPerRun(100, func() {
		round++
		list = list[:n]
		copy(list, master)
		s.BeginRound()
		list = s.RetireListStream(r, list, 0.3, round)
	})
	if allocs != 0 {
		t.Fatalf("RetireListStream allocates %v per round on a warmed list, want 0", allocs)
	}
}
