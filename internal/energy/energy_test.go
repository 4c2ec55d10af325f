package energy

import (
	"testing"

	"repro/internal/graph"
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

// TestKeysWaitForTheHorizon pins when the death predictions are made:
// never in a session whose budget cannot run out, and, in one that
// depletes, first in exactly the round the horizon names. From then on
// every key must equal a fresh prediction.
func TestKeysWaitForTheHorizon(t *testing.T) {
	// The source transmits every round and informs one listener per round
	// while listeners last.
	events := func(st *State, r int) int {
		var rx []graph.NodeID
		if r < st.N() {
			rx = []graph.NodeID{graph.NodeID(r)}
		}
		return st.EndRound(r, []graph.NodeID{0}, rx)
	}
	checkKeys := func(st *State, r int) {
		t.Helper()
		for v := range st.key {
			if k := st.predictKey(graph.NodeID(v)); st.key[v] != k {
				t.Fatalf("round %d: node %d keyed %d, fresh prediction %d", r, v, st.key[v], k)
			}
		}
	}

	t.Run("budget that cannot run out", func(t *testing.T) {
		st := NewState()
		st.Start(Spec{Model: CC2420(), Budget: 1e9}, 64)
		st.NoteInformed(0, 0)
		for r := 1; r <= 300; r++ {
			if d := events(st, r); d != 0 || st.keyed {
				t.Fatalf("round %d: %d deaths, keyed %v", r, d, st.keyed)
			}
		}
	})

	t.Run("budget that depletes", func(t *testing.T) {
		// The largest cost is Tx = 1, so the horizon is
		// ⌊(10 − depleteEps) / (2·1)⌋ = 4.
		st := NewState()
		st.Start(Spec{Model: binModel(), Budget: 10}, 4)
		st.NoteInformed(0, 0)
		if st.nextCheck != 4 {
			t.Fatalf("horizon %d after Start, want 4", st.nextCheck)
		}
		for r := 1; r <= 10; r++ {
			d := events(st, r)
			if st.keyed != (r >= 4) {
				t.Fatalf("round %d: keyed %v, want it from round 4 on", r, st.keyed)
			}
			if st.keyed {
				checkKeys(st, r)
			}
			// The source pays 1 a round and dies in round 10.
			want := 0
			if r == 10 {
				want = 1
			}
			if d != want {
				t.Fatalf("round %d: %d deaths, want %d", r, d, want)
			}
		}
		// Survivors have spent 0.5 + 9/8, 0.25 + 0.5 + 8/8 and
		// 0.5 + 0.5 + 7/8: the least charge left is 8.125, so the next
		// campaign's horizon lies ⌊8.125 / 2⌋ = 4 rounds past age 10.
		st.Rebase()
		if st.keyed || st.nextCheck != 14 {
			t.Fatalf("after Rebase: keyed %v, horizon %d, want false and 14", st.keyed, st.nextCheck)
		}
	})
}
