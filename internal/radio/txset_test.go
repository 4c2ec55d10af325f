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
// Reset keeps the list's capacity, so refilling it to its earlier size,
// whole or node by node, allocates nothing.
func TestTxSetResetReusesBuffer(t *testing.T) {
	list := make([]graph.NodeID, 256)
	for i := range list {
		list[i] = graph.NodeID(i)
	}
	var s TxSet
	s.AddAll(list)
	if allocs := testing.AllocsPerRun(100, func() { s.Reset(); s.AddAll(list) }); allocs != 0 {
		t.Fatalf("Reset+AddAll(256) allocates %v per run after warm-up, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		s.Reset()
		for _, v := range list {
			s.Add(v)
		}
	}); allocs != 0 {
		t.Fatalf("Reset+256×Add allocates %v per run after warm-up, want 0", allocs)
	}
}

// TestTxSetNoMembersAfterResetOrBeginRound pins that membership is the
// current round's list only: once Reset or BeginRound has run, no node of
// an earlier round is a member, and a later Add makes exactly its node one.
func TestTxSetNoMembersAfterResetOrBeginRound(t *testing.T) {
	const n = 16
	var s TxSet
	for _, c := range []struct {
		name  string
		empty func()
	}{{"Reset", s.Reset}, {"BeginRound", s.BeginRound}} {
		s.BeginRound()
		s.AddAll([]graph.NodeID{5, 0, 9})
		for _, v := range []graph.NodeID{5, 0, 9} {
			if !s.Contains(v) {
				t.Fatalf("%s: added node %d not a member", c.name, v)
			}
		}
		c.empty()
		for v := range n {
			if s.Contains(graph.NodeID(v)) {
				t.Fatalf("%s: node %d still a member", c.name, v)
			}
		}
		s.Add(3)
		for v := range n {
			if got := s.Contains(graph.NodeID(v)); got != (v == 3) {
				t.Fatalf("%s then Add(3): Contains(%d) = %v", c.name, v, got)
			}
		}
	}
}

// TestWindowQueueMatchesPerNodeRounds checks the queue, which keeps each
// node's informing round beside it, against the construction it replaces:
// a per-node informedAt array read by a head-pop loop. Pushes at random
// non-decreasing rounds are interleaved with Expire at random windows and
// rounds; after every step both must hold the same live nodes in the same
// order, and the queue's head round must be the head node's informedAt.
func TestWindowQueueMatchesPerNodeRounds(t *testing.T) {
	const n = 500
	r := rng.New(17)
	var q WindowQueue
	for run := 0; run < 20; run++ {
		q.Reset(n)
		informedAt := make([]int, n)
		var active []graph.NodeID
		head := 0
		perm := r.Perm(n)
		pushed, round := 0, 0
		for step := 0; step < 2*n; step++ {
			if pushed < n && r.Intn(2) == 0 {
				round += r.Intn(3)
				v := graph.NodeID(perm[pushed])
				pushed++
				q.Push(v, round)
				informedAt[v] = round
				active = append(active, v)
			} else {
				round += r.Intn(3)
				window := 1 + r.Intn(8)
				q.Expire(window, round)
				for head < len(active) && informedAt[active[head]]+window < round {
					head++
				}
			}
			if live, want := q.Live(), active[head:]; !slices.Equal(live, want) {
				t.Fatalf("run %d step %d: live %v, reference %v", run, step, live, want)
			}
			if head < len(active) {
				if got, want := q.HeadRound(), informedAt[active[head]]; got != want {
					t.Fatalf("run %d step %d: head round %d, reference %d", run, step, got, want)
				}
			}
		}
	}
}

// TestWindowQueueResetReservesRun pins Reset(n)'s reservation: the n
// pushes of a run, one per informed node, never regrow the queue's two
// slices, and the next run's Reset keeps them.
func TestWindowQueueResetReservesRun(t *testing.T) {
	const n = 1000
	var q WindowQueue
	q.Reset(n)
	if cap(q.nodes) < n || cap(q.at) < n {
		t.Fatalf("Reset(%d) reserved %d nodes and %d rounds", n, cap(q.nodes), cap(q.at))
	}
	nodes, at := q.nodes[:1], q.at[:1]
	for run := 0; run < 2; run++ {
		for v := range n {
			q.Push(graph.NodeID(v), v/3)
		}
		if len(q.Live()) != n || &q.nodes[0] != &nodes[0] || &q.at[0] != &at[0] {
			t.Fatalf("run %d: %d pushes after Reset(%d) left %d live nodes or regrew the queue", run, n, n, len(q.Live()))
		}
		q.Reset(n)
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
					gotList = got.RetireListStream(gotR, gotList, q)

					want.BeginRound()
					want.DrawListStream(wantR, wantList, q)
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
						if !got.Contains(v) {
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
				got.DrawListStream(gotR, fresh, q)
				want.DrawListStream(wantR, fresh, q)
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
	r := rng.New(5)
	s.BeginRound()
	s.RetireListStream(r, list, 1) // grow the pending set to n
	allocs := testing.AllocsPerRun(100, func() {
		list = list[:n]
		copy(list, master)
		s.BeginRound()
		list = s.RetireListStream(r, list, 0.3)
	})
	if allocs != 0 {
		t.Fatalf("RetireListStream allocates %v per round on a warmed list, want 0", allocs)
	}
}

// skipSampleRef is the test-side reference for geometric-skip sampling,
// written as a sampler that keeps its next position: it calls visit with
// the indices of [0, n) that pass independent Bernoulli(p) trials, in
// increasing order. n ≤ 0 or p ≤ 0 selects nothing and p ≥ 1
// everything, neither with a draw. Otherwise the first index is
// Geometric(p), and each step past a selected index draws 1 + Geometric(p)
// more before visit sees the index, so the draw that overshoots n ends the
// pass.
func skipSampleRef(r *rng.RNG, n int, p float64, visit func(i int)) {
	switch {
	case n <= 0 || p <= 0:
		return
	case p >= 1:
		for i := 0; i < n; i++ {
			visit(i)
		}
		return
	}
	next := r.Geometric(p)
	for next < n {
		i := next
		next += 1 + r.Geometric(p)
		visit(i)
	}
}

// FuzzDrawList checks TxSet.DrawList against skipSampleRef on a fuzzed
// candidate list of k distinct ids at probability p: the round's list must
// hold the reference's selection in order, and the generator must end in
// the reference's state, so that every later draw agrees too. A NaN p
// panics in both and is skipped.
func FuzzDrawList(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, k uint16, p float64) {
		if math.IsNaN(p) {
			t.Skip("NaN probability")
		}
		list := make([]graph.NodeID, k)
		for i, v := range rng.New(^seed).Perm(int(k)) {
			list[i] = graph.NodeID(v)
		}
		got, want := rng.New(seed), rng.New(seed)
		var s TxSet
		s.BeginRound()
		s.DrawList(got, list, p)
		var ref []graph.NodeID
		skipSampleRef(want, len(list), p, func(i int) { ref = append(ref, list[i]) })
		if !slices.Equal(s.Pending(), ref) {
			t.Fatalf("seed %d k %d p %g: DrawList selected %v, reference %v", seed, k, p, s.Pending(), ref)
		}
		if *got != *want {
			t.Fatalf("seed %d k %d p %g: generator state after DrawList differs from the reference's", seed, k, p)
		}
	})
}
