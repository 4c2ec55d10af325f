package radio

import (
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/rng"
)

// reuseStep is one session of a FuzzScratchReuse chain, decoded from
// reuseStepBytes fuzz bytes:
//
//	0 n-1   1 edge probability (1..64)/256   2 seed
//	3 kind: coin (per-node decisions), pulse (batch), sbern (batch,
//	  skipping), gossip-coin, pulse-gossip
//	4 broadcast: reception model (binary, fade, jam, lossy, sinr);
//	  gossip: odd means full duplex
//	5 broadcast: energy (off, a fresh bank, resume the chain's last bank);
//	  gossip: odd means StopWhenComplete
//	6 broadcast: bit 0 parallel delivery, bit 1 RecordHistory
//	7 broadcast: Options.Workers (0..3)
type reuseStep struct {
	n                   int
	p                   float64
	seed                uint64
	kind, model, energy int
	flags               byte
	workers             int
}

const reuseStepBytes = 8

func decodeReuseSteps(data []byte) []reuseStep {
	var steps []reuseStep
	for len(data) >= reuseStepBytes && len(steps) < 6 {
		b := data[:reuseStepBytes]
		data = data[reuseStepBytes:]
		steps = append(steps, reuseStep{
			n:       1 + int(b[0]),
			p:       float64(1+b[1]%64) / 256,
			seed:    uint64(b[2]),
			kind:    int(b[3] % 5),
			model:   int(b[4] % 5),
			energy:  int(b[5] % 3),
			flags:   b[6],
			workers: int(b[7] % 4),
		})
	}
	return steps
}

func (s reuseStep) gossip() bool { return s.kind >= 3 }

func (s reuseStep) broadcaster() Broadcaster {
	switch s.kind {
	case 0:
		return &coin{q: 0.2}
	case 1:
		return &pulse{q: 0.15}
	}
	return &sbern{q: 0.05}
}

func (s reuseStep) gossiper() Gossiper {
	if s.kind == 3 {
		return &gossipCoin{q: 0.1}
	}
	return &pulseGossip{q: 0.1}
}

// options builds the broadcast options; energy is the caller's.
func (s reuseStep) options() Options {
	models := []ReceptionModel{nil, Fade(0.2), Jam(0.15), LossyChannel(0.25), SINRThreshold(0.5, 0.1)}
	return Options{
		MaxRounds:     300,
		Reception:     models[s.model],
		Parallel:      s.flags&1 != 0,
		RecordHistory: s.flags&2 != 0,
		Workers:       s.workers,
	}
}

func (s reuseStep) gossipOptions() GossipOptions {
	return GossipOptions{MaxRounds: 300, FullDuplex: s.model%2 == 1, StopWhenComplete: s.energy%2 == 1}
}

// FuzzScratchReuse runs a fuzzed chain of broadcast and gossip sessions back
// to back on one Scratch and checks every session, over its whole result —
// Result or GossipResult, PerNodeTx and the energy report — against the
// same session on a fresh Scratch. Whatever a parked session keeps across a
// reset (buffers, kernels, the battery bank) must not leak into the next
// one. A resuming step resumes its own chain's last bank on both sides.
func FuzzScratchReuse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		reused := NewScratch()
		var bankReused, bankFresh *energy.State
		for i, st := range decodeReuseSteps(data) {
			g := graph.GNPDirected(st.n, st.p, rng.New(st.seed))
			if st.gossip() {
				got := RunGossipWith(reused, g, st.gossiper(), rng.New(st.seed+1), st.gossipOptions())
				want := RunGossipWith(NewScratch(), g, st.gossiper(), rng.New(st.seed+1), st.gossipOptions())
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d %+v: gossip on the reused scratch differs\nreused %+v\nfresh  %+v", i, st, got, want)
				}
				continue
			}
			optReused, optFresh := st.options(), st.options()
			switch {
			case st.energy == 2 && bankReused != nil && bankReused.N() == st.n:
				optReused.Energy = &energy.Spec{Resume: bankReused}
				optFresh.Energy = &energy.Spec{Resume: bankFresh}
			case st.energy != 0:
				optReused.Energy = &energy.Spec{Model: energy.CC2420(), Budget: 90, TrackPartition: true}
				optFresh.Energy = &energy.Spec{Model: energy.CC2420(), Budget: 90, TrackPartition: true}
			}
			sr := NewBroadcastSessionWith(reused, st.n, 0, st.broadcaster(), rng.New(st.seed+1))
			got := sr.Run(g, optReused)
			sf := NewBroadcastSessionWith(NewScratch(), st.n, 0, st.broadcaster(), rng.New(st.seed+1))
			want := sf.Run(g, optFresh)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d %+v: broadcast on the reused scratch differs\nreused %+v\nfresh  %+v", i, st, got, want)
			}
			if optReused.Energy != nil {
				bankReused, bankFresh = sr.EnergyState(), sf.EnergyState()
			}
		}
	})
}

// TestParallelDelivererFollowsWorkers: the parallel deliverer a session
// keeps is rebuilt when a later segment, or a later session parked in the
// same Scratch, asks for a different resolved worker count, and kept when
// the count matches. Results stay bit-identical to serial delivery.
func TestParallelDelivererFollowsWorkers(t *testing.T) {
	g := graph.GNPDirected(3000, 0.004, rng.New(61))
	twoSegments := func(s *BroadcastSession, first, second Options) *Result {
		s.Run(g, first)
		return s.Run(g, second)
	}
	want := twoSegments(NewBroadcastSession(g.N(), 0, &pulse{q: 0.3}, rng.New(8)),
		Options{MaxRounds: 20}, Options{MaxRounds: 20})
	sc := NewScratch()
	var kept *parallelDeliverer
	for _, workers := range [][2]int{{2, 3}, {3, 3}, {0, 5}} {
		s := NewBroadcastSessionWith(sc, g.N(), 0, &pulse{q: 0.3}, rng.New(8))
		s.Run(g, Options{MaxRounds: 20, Parallel: true, Workers: workers[0]})
		if s.par.workers != parallelWorkers(workers[0]) {
			t.Fatalf("workers %v: first segment ran %d workers", workers, s.par.workers)
		}
		if kept != nil && parallelWorkers(workers[0]) == kept.workers && s.par != kept {
			t.Fatalf("workers %v: a deliverer with the asked-for count was rebuilt", workers)
		}
		got := s.Run(g, Options{MaxRounds: 20, Parallel: true, Workers: workers[1]})
		if s.par.workers != parallelWorkers(workers[1]) {
			t.Fatalf("workers %v: second segment ran %d workers", workers, s.par.workers)
		}
		kept = s.par
		if !resultsEqual(got, want) {
			t.Fatalf("workers %v: parallel segments differ from serial", workers)
		}
	}
}
