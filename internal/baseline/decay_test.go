package baseline

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// scalarDecay is Decay's per-node decision as the paper states it: asked of
// every informed node every round, in informing order, it retires a node
// whose Phases·L rounds have passed, draws a node's 1 + Geometric(1/2) plan
// at each of its phase starts, and transmits inside the plan. It has no
// AppendTransmitters, so the engine runs its per-node ShouldTransmit loop;
// it is the reference the batch Decay must reproduce draw for draw.
type scalarDecay struct {
	phases, l  int
	informedAt []int
	plan       []int
	retired    []bool
	informedN  int
	retiredN   int
	r          *rng.RNG
}

func (d *scalarDecay) Name() string { return "decay" } // results compare whole

func (d *scalarDecay) Begin(n int, src graph.NodeID, r *rng.RNG) {
	d.l = max(1, int(math.Ceil(math.Log2(float64(n)))))
	d.informedAt = make([]int, n)
	d.plan = make([]int, n)
	d.retired = make([]bool, n)
	d.informedN, d.retiredN = 0, 0
	d.r = r
}

func (d *scalarDecay) BeginRound(int) {}

func (d *scalarDecay) OnInformed(round int, v graph.NodeID) {
	d.informedAt[v] = round
	d.informedN++
}

func (d *scalarDecay) ShouldTransmit(round int, v graph.NodeID) bool {
	age := round - d.informedAt[v] - 1 // 0-based rounds since informed
	if age >= d.phases*d.l {
		if !d.retired[v] {
			d.retired[v] = true
			d.retiredN++
		}
		return false
	}
	inPhase := age % d.l
	if inPhase == 0 {
		d.plan[v] = min(1+d.r.Geometric(0.5), d.l)
	}
	return inPhase < d.plan[v]
}

func (d *scalarDecay) Quiesced(int) bool { return d.retiredN == d.informedN }

// TestDecayBatchMatchesScalarReference runs the batch Decay and the scalar
// reference on G(n,p), a grid and a UDG at several seeds and phase budgets,
// with round histories, and requires identical results. The energy leg
// chains broadcast sessions on one UnitTx battery bank as X7b does (a
// fresh protocol per session, the bank carried by energy.Spec.Resume), and
// splits every session into two Run segments.
func TestDecayBatchMatchesScalarReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Digraph
	}{
		{"gnp", graph.GNPDirected(1024, 0.01, rng.New(3))},
		{"grid", graph.Grid2D(16, 16)},
		{"udg", graph.RGG(512, 1.5*graph.ConnectivityRadius(512), false, rng.New(5))},
	}
	for _, tc := range graphs {
		for _, phases := range []int{1, 3, 40} {
			for seed := uint64(1); seed <= 4; seed++ {
				name := fmt.Sprintf("%s phases=%d seed=%d", tc.name, phases, seed)
				opt := radio.Options{MaxRounds: 20000, RecordHistory: true}
				got := radio.RunBroadcast(tc.g, 0, NewDecay(phases), rng.New(seed), opt)
				want := radio.RunBroadcast(tc.g, 0, &scalarDecay{phases: phases}, rng.New(seed), opt)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: batch Decay (%d rounds, %d tx, %d informed) differs from the scalar reference (%d, %d, %d)",
						name, got.Rounds, got.TotalTx, got.Informed, want.Rounds, want.TotalTx, want.Informed)
				}
				if phases == 40 && !got.Completed() {
					t.Fatalf("%s: informed %d of %d; the comparison never reached a full broadcast", name, got.Informed, tc.g.N())
				}
			}
		}
	}

	g := graph.Grid2D(12, 12)
	n := g.N()
	for seed := uint64(1); seed <= 3; seed++ {
		var specs [2]*energy.Spec
		for i := range specs {
			specs[i] = &energy.Spec{Model: energy.UnitTx(), Budget: 64, DeadReceive: true}
		}
		r := [2]*rng.RNG{rng.New(seed), rng.New(seed)}
		for c := 0; c < 50; c++ {
			var res [2][2]*radio.Result
			for i, mk := range []func() radio.Broadcaster{
				func() radio.Broadcaster { return NewDecay(8) },
				func() radio.Broadcaster { return &scalarDecay{phases: 8} },
			} {
				src := graph.NodeID(r[i].Intn(n))
				sess := radio.NewBroadcastSession(n, src, mk(), r[i].Split(uint64(c)))
				res[i][0] = sess.Run(g, radio.Options{MaxRounds: 40, Energy: specs[i]})
				res[i][1] = sess.Run(g, radio.Options{MaxRounds: 300000, Energy: specs[i]})
				specs[i] = &energy.Spec{Resume: sess.EnergyState()}
			}
			if !reflect.DeepEqual(res[0], res[1]) {
				t.Fatalf("energy seed=%d session %d: batch Decay (%d+%d rounds, %d+%d tx) differs from the scalar reference (%d+%d, %d+%d)",
					seed, c, res[0][0].Rounds, res[0][1].Rounds, res[0][0].TotalTx, res[0][1].TotalTx,
					res[1][0].Rounds, res[1][1].Rounds, res[1][0].TotalTx, res[1][1].TotalTx)
			}
			if !res[0][1].Completed() {
				if c == 0 {
					t.Fatalf("energy seed=%d: the first session failed; the chain compared nothing", seed)
				}
				break
			}
		}
	}
}
