package energy

import (
	"math"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// binModel uses binary-exact costs so the lazy rate·rounds accounting and a
// naive per-round summation agree bit for bit.
func binModel() Model { return Model{Tx: 1, Rx: 0.5, Listen: 0.25, Sleep: 0.125} }

func idleRounds(st *State, rounds int) {
	for r := 1; r <= rounds; r++ {
		st.EndRound(r, nil, nil)
	}
}

func TestListenDrainKillsUninformedNodes(t *testing.T) {
	st := NewState()
	st.Start(Spec{Model: Model{Listen: 0.25}, Budget: 1}, 4)
	for r := 1; r <= 3; r++ {
		if d := st.EndRound(r, nil, nil); d != 0 {
			t.Fatalf("round %d: %d premature deaths", r, d)
		}
	}
	if d := st.EndRound(4, nil, nil); d != 4 {
		t.Fatalf("round 4: got %d deaths, want 4 (0.25 × 4 rounds = budget)", d)
	}
	rep := st.Report()
	if rep.FirstDeathRound != 4 || rep.HalfDeathRound != 4 || rep.DeadCount != 4 {
		t.Fatalf("lifetime marks = (%d, %d, dead %d), want (4, 4, 4)",
			rep.FirstDeathRound, rep.HalfDeathRound, rep.DeadCount)
	}
	if rep.ListenEnergy != 4 || rep.TotalEnergy() != 4 {
		t.Fatalf("listen energy %g (total %g), want 4", rep.ListenEnergy, rep.TotalEnergy())
	}
	for v, s := range rep.Spent {
		if s != 1 || rep.Residual[v] != 0 {
			t.Fatalf("node %d: spent %g residual %g, want 1 and 0", v, s, rep.Residual[v])
		}
	}
	if st.AliveCount() != 0 {
		t.Fatalf("alive count %d after network death", st.AliveCount())
	}
}

func TestInformedNodesSleepAtTheirOwnRate(t *testing.T) {
	st := NewState()
	st.Start(Spec{Model: Model{Listen: 0.25, Sleep: 0.125}, Budget: 1}, 4)
	st.NoteInformed(0, 0) // the source: sleeps from round 1 on, no rx cost
	deaths := 0
	for r := 1; r <= 4; r++ {
		deaths += st.EndRound(r, nil, nil)
	}
	if deaths != 3 {
		t.Fatalf("through round 4: got %d deaths, want the 3 listeners", deaths)
	}
	if !st.Alive(0) || st.AliveCount() != 1 {
		t.Fatal("sleeping source should outlive the listeners")
	}
	deaths = 0
	for r := 5; r <= 8; r++ {
		deaths += st.EndRound(r, nil, nil)
	}
	if deaths != 1 {
		t.Fatalf("rounds 5-8: got %d deaths, want the source (0.125 × 8 = budget)", deaths)
	}
	rep := st.Report()
	if rep.FirstDeathRound != 4 || rep.HalfDeathRound != 4 {
		t.Fatalf("lifetime marks (%d, %d), want (4, 4)", rep.FirstDeathRound, rep.HalfDeathRound)
	}
	if rep.SleepEnergy != 1 || rep.ListenEnergy != 3 {
		t.Fatalf("energy split sleep %g listen %g, want 1 and 3", rep.SleepEnergy, rep.ListenEnergy)
	}
}

func TestTransmitOverdrawAndFilterAlive(t *testing.T) {
	st := NewState()
	st.Start(Spec{Model: Model{Tx: 1}, Budget: 2.5}, 3)
	st.NoteInformed(0, 0)
	txs := []graph.NodeID{0}
	for r := 1; r <= 2; r++ {
		if d := st.EndRound(r, txs, nil); d != 0 {
			t.Fatalf("round %d: premature death", r)
		}
	}
	if d := st.EndRound(3, txs, nil); d != 1 {
		t.Fatal("third transmission should overdraw the 2.5-unit battery")
	}
	rep := st.Report()
	if rep.Spent[0] != 3 || rep.Residual[0] != 0 {
		t.Fatalf("overdrawn node: spent %g residual %g, want 3 and 0 (clamped)", rep.Spent[0], rep.Residual[0])
	}
	if rep.TxEnergy != 3 {
		t.Fatalf("tx energy %g, want 3", rep.TxEnergy)
	}
	if got := st.FilterAlive([]graph.NodeID{0, 1, 2}); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("FilterAlive = %v, want [1 2]", got)
	}
}

func TestReceiveChargesAndSwitchesToSleep(t *testing.T) {
	st := NewState()
	st.Start(Spec{Model: binModel(), Budget: 100}, 2)
	st.NoteInformed(0, 0)
	st.EndRound(1, nil, nil)
	st.EndRound(2, nil, []graph.NodeID{1}) // node 1 decodes in round 2
	idleRounds := 3
	for r := 3; r < 3+idleRounds; r++ {
		st.EndRound(r, nil, nil)
	}
	rep := st.Report()
	// Node 1: listened round 1 (0.25), received round 2 (0.5), slept 3 rounds
	// (0.375).
	if want := 0.25 + 0.5 + 3*0.125; rep.Spent[1] != want {
		t.Fatalf("receiver spent %g, want %g", rep.Spent[1], want)
	}
	// Node 0: slept all 5 rounds.
	if want := 5 * 0.125; rep.Spent[0] != want {
		t.Fatalf("source spent %g, want %g", rep.Spent[0], want)
	}
	if rep.RxEnergy != 0.5 {
		t.Fatalf("rx energy %g, want 0.5", rep.RxEnergy)
	}
}

func TestUnlimitedBudgetMetersOnly(t *testing.T) {
	st := NewState()
	st.Start(Spec{Model: binModel()}, 8)
	st.NoteInformed(0, 0)
	idleRounds(st, 10000)
	if st.DeadCount() != 0 {
		t.Fatal("unlimited budget must never deplete")
	}
	if !math.IsInf(st.Remaining(3), 1) {
		t.Fatal("Remaining should be +Inf when unlimited")
	}
	rep := st.Report()
	if rep.Residual != nil {
		t.Fatal("Report.Residual must be nil when unlimited")
	}
	if want := 7 * 10000 * 0.25; rep.ListenEnergy != want {
		t.Fatalf("listen energy %g, want %g", rep.ListenEnergy, want)
	}
}

func TestRebaseContinuesAgeAndResetsInformedStatus(t *testing.T) {
	st := NewState()
	st.Start(Spec{Model: Model{Listen: 0.25, Sleep: 0.125}, Budget: 4}, 2)
	st.NoteInformed(0, 0)
	idleRounds(st, 4) // node 0 slept 4 (0.5), node 1 listened 4 (1.0)

	st.Rebase() // new campaign: both back to listening
	st.NoteInformed(1, 0)
	// Session rounds restart at 1; ages continue at 5, 6, ...
	for r := 1; r <= 12; r++ {
		st.EndRound(r, nil, nil)
	}
	rep := st.Report()
	// Node 1: 4 rounds listening (1.0) + 12 rounds sleeping (1.5) = 2.5.
	if rep.Spent[1] != 2.5 {
		t.Fatalf("node 1 spent %g, want 2.5", rep.Spent[1])
	}
	// Node 0: 4 rounds sleeping (0.5) + 12 rounds listening (3.0) = 3.5.
	if rep.Spent[0] != 3.5 {
		t.Fatalf("node 0 spent %g, want 3.5", rep.Spent[0])
	}
	if rep.DeadCount != 0 {
		t.Fatal("nobody should have died yet")
	}
	// Node 0 has 0.5 left listening at 0.25: dies at age 18 = session round 14.
	st.EndRound(13, nil, nil)
	if d := st.EndRound(14, nil, nil); d != 1 {
		t.Fatal("node 0 should deplete at session round 14 (age 18)")
	}
	if got := st.Report().FirstDeathRound; got != 18 {
		t.Fatalf("first-death age %d, want 18", got)
	}
}

func TestPartitionDetection(t *testing.T) {
	// Path 0-1-2-3-4; node 2's battery is the bottleneck. When it dies the
	// alive nodes {0,1} and {3,4} split.
	g := graph.Path(5)
	st := NewState()
	st.Start(Spec{
		Model:          Model{Listen: 0.25},
		Budgets:        []float64{100, 100, 1, 100, 100},
		TrackPartition: true,
	}, 5)
	for r := 1; r <= 10; r++ {
		d := st.EndRound(r, nil, nil)
		if d > 0 {
			st.CheckPartition(g, r)
		}
	}
	rep := st.Report()
	if rep.FirstDeathRound != 4 {
		t.Fatalf("first death at %d, want 4", rep.FirstDeathRound)
	}
	if rep.PartitionRound != 4 {
		t.Fatalf("partition at %d, want 4 (node 2's death splits the path)", rep.PartitionRound)
	}
	if rep.HalfDeathRound != -1 {
		t.Fatal("half-death should not be reached")
	}
}

// TestStateMatchesNaiveReference fuzzes the lazy-fold + death-heap machinery
// against a straightforward per-round accounting on random event streams.
// Binary-exact costs make the comparison exact, including death rounds.
func TestStateMatchesNaiveReference(t *testing.T) {
	const n = 64
	const rounds = 400
	m := binModel()
	r := rng.New(0xeeee)

	for trial := 0; trial < 20; trial++ {
		budgets := make([]float64, n)
		for i := range budgets {
			budgets[i] = float64(1+r.Intn(24)) * 0.25
		}
		st := NewState()
		st.Start(Spec{Model: m, Budgets: budgets}, n)

		// Naive mirror.
		spent := make([]float64, n)
		informed := make([]bool, n)
		dead := make([]bool, n)
		naiveFirst, naiveHalf := -1, -1
		naiveDead := 0

		st.NoteInformed(0, 0)
		informed[0] = true

		var txs, delivered []graph.NodeID
		for round := 1; round <= rounds; round++ {
			txs, delivered = txs[:0], delivered[:0]
			for v := 0; v < n; v++ {
				if dead[v] {
					continue
				}
				if informed[v] {
					if r.Float64() < 0.15 {
						txs = append(txs, graph.NodeID(v))
					}
				} else if r.Float64() < 0.05 {
					delivered = append(delivered, graph.NodeID(v))
				}
			}
			// Engine-side filtering must agree with the naive alive view.
			if got := st.FilterAlive(append([]graph.NodeID(nil), txs...)); len(got) != len(txs) {
				t.Fatalf("trial %d round %d: FilterAlive disagrees with naive alive set", trial, round)
			}
			st.EndRound(round, txs, delivered)

			// Naive accounting: one state per node per round.
			inTx := make(map[graph.NodeID]bool, len(txs))
			for _, v := range txs {
				inTx[v] = true
			}
			inRx := make(map[graph.NodeID]bool, len(delivered))
			for _, v := range delivered {
				inRx[v] = true
			}
			for v := 0; v < n; v++ {
				if dead[v] {
					continue
				}
				switch {
				case inTx[graph.NodeID(v)]:
					spent[v] += m.Tx
				case inRx[graph.NodeID(v)]:
					spent[v] += m.Rx
				case informed[v]:
					spent[v] += m.Sleep
				default:
					spent[v] += m.Listen
				}
			}
			for _, v := range delivered {
				informed[v] = true
			}
			for v := 0; v < n; v++ {
				if !dead[v] && spent[v] >= budgets[v]-1e-9 {
					dead[v] = true
					naiveDead++
					if naiveFirst < 0 {
						naiveFirst = round
					}
					if naiveHalf < 0 && 2*naiveDead >= n {
						naiveHalf = round
					}
				}
			}
			if st.DeadCount() != naiveDead {
				t.Fatalf("trial %d round %d: dead %d, naive %d", trial, round, st.DeadCount(), naiveDead)
			}
		}

		rep := st.Report()
		for v := 0; v < n; v++ {
			if rep.Spent[v] != spent[v] {
				t.Fatalf("trial %d node %d: spent %g, naive %g", trial, v, rep.Spent[v], spent[v])
			}
			if st.Alive(graph.NodeID(v)) == dead[v] {
				t.Fatalf("trial %d node %d: liveness mismatch", trial, v)
			}
		}
		if rep.FirstDeathRound != naiveFirst || rep.HalfDeathRound != naiveHalf {
			t.Fatalf("trial %d: lifetime marks (%d, %d), naive (%d, %d)",
				trial, rep.FirstDeathRound, rep.HalfDeathRound, naiveFirst, naiveHalf)
		}
		// Cross-check the aggregate split against the per-node spends.
		sum := 0.0
		for _, s := range rep.Spent {
			sum += s
		}
		if math.Abs(sum-rep.TotalEnergy()) > 1e-6 {
			t.Fatalf("trial %d: per-node spend sum %g != state totals %g", trial, sum, rep.TotalEnergy())
		}
	}
}

// TestStartReusesStorage pins the scratch contract: a second Start on the
// same node count allocates nothing.
func TestStartReusesStorage(t *testing.T) {
	st := NewState()
	spec := Spec{Model: binModel(), Budget: 8}
	st.Start(spec, 512)
	idleRounds(st, 10)
	if allocs := testing.AllocsPerRun(50, func() {
		st.Start(spec, 512)
		st.NoteInformed(0, 0)
		st.EndRound(1, nil, nil)
	}); allocs != 0 {
		t.Fatalf("Start+round on a warm state allocates %v per run, want 0", allocs)
	}
}
