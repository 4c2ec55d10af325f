package radio

// Tests of the engine's reuse of an idle round's kernel result: a round
// whose transmitters repeat those of the previous round of the same Run
// segment, after a kernel that delivered nothing under a channel without
// per-edge draws, takes that round's empty output and collision count
// without pricing or delivering. Reuse never crosses a segment, so a
// session run as R one-round segments never reuses, and must equal the same
// session run as one R-round segment in every field of its Result.

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/rng"
)

// beacon is a test protocol whose source transmits in every round and no
// other node ever does: its transmitter list never changes, so every round
// after the first that delivers nothing is served by reuse.
type beacon struct{}

func (beacon) Name() string                              { return "beacon" }
func (beacon) Begin(int, graph.NodeID, *rng.RNG)         {}
func (beacon) BeginRound(int)                            {}
func (beacon) ShouldTransmit(_ int, v graph.NodeID) bool { return v == 0 }
func (beacon) OnInformed(int, graph.NodeID)              {}
func (beacon) Quiesced(int) bool                         { return false }

// reuseCase is one workload of the segment-equivalence matrix. Options are
// built fresh per run form, so a Jammed callback's own stream starts over.
type reuseCase struct {
	name   string
	g      *graph.Digraph
	src    graph.NodeID
	proto  func() Broadcaster
	opts   func() Options
	rounds int
}

func reuseCases() []reuseCase {
	n := 192 // C1's reduced G(n, 8·ln n/n)
	c1 := graph.GNPDirected(n, 8*math.Log(float64(n))/float64(n), rng.New(2009))
	// Two leaves of the source collide at a third node forever.
	livelock := graph.FromEdges(4, [][2]graph.NodeID{{0, 1}, {0, 2}, {1, 3}, {2, 3}})
	star := graph.Star(40)
	floodP := func() Broadcaster { return flood{} }
	beaconP := func() Broadcaster { return beacon{} }
	plain := func(o Options) func() Options { return func() Options { return o } }
	return []reuseCase{
		{"flood/c1/binary", c1, 0, floodP, plain(Options{}), 120},
		{"flood/c1/fade", c1, 0, floodP, plain(Options{Reception: Fade(0.2)}), 120},
		{"flood/c1/cc2420", c1, 0, floodP, func() Options {
			return Options{Energy: &energy.Spec{Model: energy.CC2420()}}
		}, 120},
		{"flood/c1/lossy", c1, 0, floodP, plain(Options{Reception: LossyChannel(0.3)}), 120},
		{"flood/star", star, 3, floodP, plain(Options{}), 30},
		{"flood/symmetric-path", graph.Path(7), 3, floodP, plain(Options{}), 30},
		// Node 2 runs flat after 8 transmissions (rounds 2–9), so round 10
		// has a shorter transmitter list and informs node 3.
		{"flood/unit-tx-death", livelock, 0, floodP, func() Options {
			return Options{Energy: &energy.Spec{Model: energy.UnitTx(), Budgets: []float64{100, 100, 8, 100}}}
		}, 30},
		// The beacon rows veto part of a non-empty kernel output each round.
		{"beacon/fade", star, 0, beaconP, plain(Options{Reception: Fade(0.5)}), 30},
		{"beacon/jammed", star, 0, beaconP, func() Options {
			jr := rng.New(5)
			var jammed []graph.NodeID
			return Options{Jammed: func(int) []graph.NodeID {
				jammed = jammed[:0]
				for _, v := range jr.SampleWithoutReplacement(41, 20) {
					jammed = append(jammed, graph.NodeID(v))
				}
				return jammed
			}}
		}, 30},
		{"beacon/duty", star, 0, beaconP, func() Options {
			return Options{Energy: &energy.Spec{Model: energy.CC2420(),
				Schedule: &energy.DutyCycle{Period: 3, On: 1}}}
		}, 30},
	}
}

// runWhole runs c as one segment of c.rounds rounds.
func runWhole(c reuseCase, history bool) *Result {
	opt := c.opts()
	opt.MaxRounds, opt.RecordHistory = c.rounds, history
	return NewBroadcastSession(c.g.N(), c.src, c.proto(), rng.New(77)).Run(c.g, opt)
}

// runOneRoundSegments runs c as one-round segments until the session has
// executed want rounds (or c.rounds segments), and returns the last
// segment's Result with the segments' history rows joined as one segment's.
func runOneRoundSegments(c reuseCase, history bool, want int) *Result {
	opt := c.opts()
	opt.MaxRounds, opt.RecordHistory = 1, history
	sess := NewBroadcastSession(c.g.N(), c.src, c.proto(), rng.New(77))
	var res *Result
	var rows []RoundStat
	for i := 0; i < c.rounds && (res == nil || sess.Rounds() < want); i++ {
		res = sess.Run(c.g, opt)
		if len(rows) == 0 {
			rows = append(rows, res.History...)
		} else if len(res.History) > 0 {
			rows = append(rows, res.History[1:]...)
		}
	}
	res.History = rows
	return res
}

// TestKernelReuseMatchesOneRoundSegments holds every reuse-eligible and
// reuse-ineligible workload to its one-round-segment replay, under every
// kernel forcing, with and without RecordHistory.
func TestKernelReuseMatchesOneRoundSegments(t *testing.T) {
	defer SetEngineOverrides(EngineOverrides{})
	forcings := []struct {
		name string
		k    DeliveryKernel
	}{{"auto", KernelAuto}, {"push", KernelPush}, {"pull", KernelPull},
		{"parallel", KernelParallel}, {"dense", KernelDense}}
	for _, c := range reuseCases() {
		for _, f := range forcings {
			for _, history := range []bool{false, true} {
				SetEngineOverrides(EngineOverrides{Kernel: f.k})
				label := c.name + "/" + f.name
				if history {
					label += "/history"
				}
				whole := runWhole(c, history)
				segs := runOneRoundSegments(c, history, whole.Rounds)
				if !resultsEqual(whole, segs) {
					t.Fatalf("%s: one segment and one-round segments differ\nwhole %+v\nsegs  %+v",
						label, whole, segs)
				}
				if !reflect.DeepEqual(whole.Energy, segs.Energy) {
					t.Fatalf("%s: energy reports differ\nwhole %+v\nsegs  %+v", label, whole.Energy, segs.Energy)
				}
			}
		}
	}
}

// TestKernelReuseStopsAtSegmentRebuild: flood stalls on one random
// geometric graph, which graph.Scratch then rebuilds in place from fresh
// points at a smaller radius, as the mobility epochs rebuild theirs; the
// sparser graph gives stalled nodes single informed neighbours again. The
// first segment ends on rounds that
// deliver nothing with an unchanged transmitter list, so a reuse carried
// into the second segment would deliver nothing on the new graph. Each
// round's deliveries and collision count must match a referenceDeliver
// replay of the same flood, with and without RecordHistory.
func TestKernelReuseStopsAtSegmentRebuild(t *testing.T) {
	n := 256
	for _, history := range []bool{false, true} {
		sc := graph.NewScratch()
		r := rng.New(41)
		rc := graph.ConnectivityRadius(n)
		sess := NewBroadcastSession(n, 0, flood{}, rng.New(1))
		informed := NewBitset(n)
		informed.Set(0)
		var g1 *graph.Digraph
		for seg, radius := range []float64{2 * rc, rc / 2} {
			rounds := 40
			g, _ := sc.Geometric(graph.GeomSpec{N: n, Radius: radius, Torus: true}, r)
			if seg == 0 {
				g1 = g
			} else if g != g1 {
				t.Fatal("scratch no longer rebuilds in place; this test needs a same-pointer rebuild")
			}
			var want []RoundStat
			for i := 0; i < rounds; i++ {
				var tx []graph.NodeID
				for v := 0; v < n; v++ {
					if informed.Get(graph.NodeID(v)) {
						tx = append(tx, graph.NodeID(v))
					}
				}
				d, coll := referenceDeliver(g, tx, informed)
				for _, v := range d {
					informed.Set(v)
				}
				want = append(want, RoundStat{NewlyInformed: len(d), Informed: informed.Count(), Collisions: coll})
			}
			res := sess.Run(g, Options{MaxRounds: rounds, RecordHistory: history})
			if seg == 0 && (want[rounds-1].NewlyInformed != 0 || want[rounds-1].Informed == n) {
				t.Fatalf("flood did not stall in the first segment: %+v", want[rounds-1])
			}
			if seg == 1 && want[rounds-1].Informed == want[0].Informed-want[0].NewlyInformed {
				t.Fatal("the rebuilt graph informs nobody; the case cannot tell reuse from a kernel")
			}
			if res.Informed != want[rounds-1].Informed {
				t.Fatalf("history %v, segment %d: %d informed, replay %d", history, seg, res.Informed, want[rounds-1].Informed)
			}
			for v := 0; v < n; v++ {
				if sess.informed.Get(graph.NodeID(v)) != informed.Get(graph.NodeID(v)) {
					t.Fatalf("history %v, segment %d: node %d informed state differs from the replay", history, seg, v)
				}
			}
			if !history {
				continue
			}
			for i, w := range want {
				h := res.History[i+1]
				if h.NewlyInformed != w.NewlyInformed || h.Informed != w.Informed || h.Collisions != w.Collisions {
					t.Fatalf("segment %d round %d: engine %+v, replay %+v", seg, h.Round, h, w)
				}
			}
		}
	}
}
