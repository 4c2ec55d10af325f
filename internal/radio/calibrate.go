package radio

import (
	"runtime"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
)

// Calibration describes the machine a run executes on: its core counts and
// the measured per-edge cost of the serial push and dense kernels. Scripts
// stamp it into benchmark metadata so trajectory points from different
// hosts stay comparable. Nothing schedules from it and kernel choice never
// reads it, so results do not depend on what it reports.
type Calibration struct {
	GoMaxProcs int // runtime.GOMAXPROCS(0) at probe time
	NumCPU     int // runtime.NumCPU()
	// EdgeNs and DenseEdgeNs are the measured per-edge costs (nanoseconds) of
	// the serial push and word-parallel dense kernels on a synthetic dense
	// round — the constants the cost model's "outSum ≳ n" heuristic stands
	// on.
	EdgeNs      float64
	DenseEdgeNs float64
}

var (
	calOnce sync.Once
	cal     Calibration
)

// Calibrate measures the machine once per process and returns the cached
// description (two synthetic delivery rounds). Safe for concurrent use.
func Calibrate() Calibration {
	calOnce.Do(func() { cal = runProbe() })
	return cal
}

func runProbe() Calibration {
	c := Calibration{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	c.EdgeNs, c.DenseEdgeNs = measureEdgeCost()
	return c
}

// measureEdgeCost times the serial push and dense kernels on one synthetic
// dense round (n=4096, d=32, every node transmitting) and reports ns/edge
// for each.
func measureEdgeCost() (edgeNs, denseNs float64) {
	const (
		n = 4096
		d = 32
	)
	r := rng.New(0xca11b8a7e)
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for k := 0; k < d; k++ {
			v := int(r.Uint64n(uint64(n)))
			if v != u {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v))
			}
		}
	}
	g := b.Build()
	tx := make([]graph.NodeID, n)
	for i := range tx {
		tx[i] = graph.NodeID(i)
	}
	informed := NewBitset(n)
	edges := float64(g.M())
	caps := Binary().resolve(0)

	st := newDeliveryState(n)
	dn := newDenseState(n)
	// One warm-up each, then best-of-3 to shed scheduler noise.
	st.deliver(g, 1, tx, informed, caps)
	dn.deliver(g, tx, informed)
	timeIt := func(f func()) float64 {
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			f()
			if dt := time.Since(t0); dt < best {
				best = dt
			}
		}
		return float64(best.Nanoseconds()) / edges
	}
	edgeNs = timeIt(func() { st.deliver(g, 1, tx, informed, caps) })
	denseNs = timeIt(func() { dn.deliver(g, tx, informed) })
	return edgeNs, denseNs
}
