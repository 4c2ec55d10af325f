package energy

// Tests of listener duty-cycle schedules: direct spend checks across wake
// boundaries (the naive mirror with schedules active is in mirror_test.go).

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
)

// refAwake mirrors DutyCycle.awakeAt independently of the production code:
// node v is awake in round r iff (r-1+v) mod Period < On.
func refAwake(d DutyCycle, v graph.NodeID, r int) bool {
	return (r-1+int(v))%d.Period < d.On
}

func TestScheduleAwakeAtMatchesDefinition(t *testing.T) {
	r := rng.New(0x5c4ed)
	for trial := 0; trial < 200; trial++ {
		d := DutyCycle{Period: 1 + r.Intn(9)}
		d.On = 1 + r.Intn(d.Period)
		for v := 0; v < 12; v++ {
			for round := 1; round <= 3*d.Period+2; round++ {
				got := d.awakeAt(d.classOf(graph.NodeID(v)), round)
				if want := refAwake(d, graph.NodeID(v), round); got != want {
					t.Fatalf("%+v node %d round %d: awake %v, definition says %v", d, v, round, got, want)
				}
			}
		}
		// awakeIn must agree with counting awakeAt round by round.
		c := d.classOf(graph.NodeID(r.Intn(12)))
		from := 1 + r.Intn(20)
		to := from + r.Intn(40) - 2
		want := int64(0)
		for round := from; round <= to; round++ {
			if d.awakeAt(c, round) {
				want++
			}
		}
		if got := d.awakeIn(c, from, to); got != want {
			t.Fatalf("%+v class %d: awakeIn(%d, %d) = %d, counted %d", d, c, from, to, got, want)
		}
	}
}

// TestScheduleAsleepRunSpendsSleepOnly: a listener scheduled asleep for a
// whole run pays exactly the sleep rate — never Listen — and an awake round
// at the boundary switches it back.
func TestScheduleAsleepRunSpendsSleepOnly(t *testing.T) {
	m := Model{Listen: 1, Sleep: 0.25}
	// Period 4, On 1 over listeners {0, 1, 2}: the awake sets of rounds
	// 1..4 are {0}, {}, {2}, {1}. Round 2 wakes nobody, and rounds 1..3 are
	// one fully asleep span for node 1. Report reads without folding, so
	// node 1's span still settles in one piece.
	const budget = 100
	st := NewState()
	st.Start(Spec{Model: m, Budget: budget, Schedule: &DutyCycle{Period: 4, On: 1}}, 3)
	awake := []int{1, 0, 1, 1}
	listened := 0
	for r := 1; r <= 4; r++ {
		st.EndRound(r, nil, nil)
		listened += awake[r-1]
		rep := st.Report()
		if want := float64(listened); rep.ListenEnergy != want {
			t.Fatalf("rounds 1..%d listen energy %g, want %g", r, rep.ListenEnergy, want)
		}
		if want := float64(3*r-listened) * 0.25; rep.SleepEnergy != want {
			t.Fatalf("rounds 1..%d sleep energy %g, want %g", r, rep.SleepEnergy, want)
		}
		// Node 1 pays Sleep through its asleep span and Listen at its
		// wake boundary, round 4.
		want := budget - float64(min(r, 3))*0.25
		if r == 4 {
			want -= 1
		}
		if got := rep.Residual[1]; got != want {
			t.Fatalf("node 1 after round %d left %g, want %g", r, got, want)
		}
	}
}

// TestScheduleLazyFoldAcrossWakeBoundaries: per-node spends settle lazily
// (only when Report forces a fold), and the closed-form span settlement
// must cross wake/sleep boundaries exactly.
func TestScheduleLazyFoldAcrossWakeBoundaries(t *testing.T) {
	m := Model{Listen: 0.75, Sleep: 0.125}
	d := &DutyCycle{Period: 3, On: 2}
	const n, rounds = 7, 23
	st := NewState()
	st.Start(Spec{Model: m, Budget: 1000, Schedule: d}, n)
	for r := 1; r <= rounds; r++ {
		st.EndRound(r, nil, nil)
	}
	rep := st.Report()
	for v := 0; v < n; v++ {
		awake := 0
		for r := 1; r <= rounds; r++ {
			if refAwake(*d, graph.NodeID(v), r) {
				awake++
			}
		}
		want := 1000 - (float64(awake)*m.Listen + float64(rounds-awake)*m.Sleep)
		if got := rep.Residual[v]; got != want {
			t.Fatalf("node %d: remaining %g, want %g (%d awake of %d rounds)", v, got, want, awake, rounds)
		}
	}
}

// randomSchedule draws a schedule (possibly inactive) for the naive-mirror
// rows.
func randomSchedule(r *rng.RNG) *DutyCycle {
	d := &DutyCycle{Period: 1 + r.Intn(7)}
	d.On = 1 + r.Intn(d.Period)
	return d
}

// TestScheduleValidationPanics: malformed schedules and the inactive
// On == Period case.
func TestScheduleValidationPanics(t *testing.T) {
	for name, d := range map[string]DutyCycle{
		"zero period": {Period: 0, On: 0},
		"zero on":     {Period: 4, On: 0},
		"on > period": {Period: 2, On: 3},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			NewState().Start(Spec{Model: UnitTx(), Schedule: &d}, 2)
		}()
	}
	// On == Period is valid but gates nothing: equivalent to no schedule.
	st := NewState()
	st.Start(Spec{Model: UnitTx(), Schedule: &DutyCycle{Period: 3, On: 3}}, 2)
	if st.Scheduled() {
		t.Fatal("an always-on schedule should resolve to unscheduled")
	}
	if got := st.FilterAwake([]graph.NodeID{0, 1}, 5); len(got) != 2 {
		t.Fatalf("unscheduled FilterAwake kept %v, want both nodes", got)
	}
}
