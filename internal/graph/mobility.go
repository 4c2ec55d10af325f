package graph

import (
	"math"

	"repro/internal/rng"
)

// MobilityModel selects how node positions evolve between epochs of a
// dynamic geometric network.
type MobilityModel int

const (
	// MobilityResample redraws every position fresh each epoch — the
	// memoryless "nodes teleported" model used for union-connectivity
	// experiments (an epoch is long relative to movement).
	MobilityResample MobilityModel = iota
	// MobilityWaypoint is the random-waypoint model: each node picks a
	// uniform destination and a speed, walks straight toward it one step per
	// epoch, and picks a fresh destination (and speed) on arrival. Positions
	// are continuous across epochs, so successive snapshots are correlated.
	MobilityWaypoint
)

// MobileNetwork owns a set of moving radio nodes and emits one CSR topology
// snapshot per epoch. The simulation pattern for dynamic-network trials is:
//
//	m := graph.NewMobileNetwork(spec, graph.MobilityWaypoint, 0.01, 0.05, rng.New(seed))
//	for e := 0; e < epochs; e++ {
//		g := m.Snapshot(scratch)     // topology for this epoch
//		... run protocol rounds on g ...
//		m.Advance()                  // nodes move
//	}
//
// Radii are sampled once at construction (hardware does not change when a
// node moves); positions follow the mobility model. All randomness comes
// from the constructor's RNG, so a trial is a pure function of its seed.
type MobileNetwork struct {
	spec       GeomSpec
	model      MobilityModel
	vmin, vmax float64
	r          *rng.RNG
	pts        []GeometricPoint
	parents    []float64 // clustered-placement parent-site buffer
	radii      []float64 // fixed per-node hardware radii
	destX      []float64 // waypoint targets
	destY      []float64
	speed      []float64
}

// NewMobileNetwork creates a mobile geometric network. vmin/vmax bound the
// per-epoch travel distance for MobilityWaypoint (ignored by
// MobilityResample); both are fractions of the unit square's side.
func NewMobileNetwork(spec GeomSpec, model MobilityModel, vmin, vmax float64, r *rng.RNG) *MobileNetwork {
	spec.check()
	if model == MobilityWaypoint && (vmin <= 0 || vmax < vmin) {
		panic("graph: waypoint mobility needs 0 < vmin <= vmax")
	}
	m := &MobileNetwork{spec: spec, model: model, vmin: vmin, vmax: vmax, r: r}
	m.pts, m.parents = samplePoints(spec, r, nil, nil)
	m.radii = make([]float64, spec.N)
	for i := range m.pts {
		m.radii[i] = m.pts[i].Radius
	}
	if model == MobilityWaypoint {
		n := spec.N
		m.destX = make([]float64, n)
		m.destY = make([]float64, n)
		m.speed = make([]float64, n)
		for i := 0; i < n; i++ {
			m.pickWaypoint(i)
		}
	}
	return m
}

func (m *MobileNetwork) pickWaypoint(i int) {
	m.destX[i] = m.r.Float64()
	m.destY[i] = m.r.Float64()
	m.speed[i] = m.vmin + (m.vmax-m.vmin)*m.r.Float64()
}

// N returns the node count.
func (m *MobileNetwork) N() int { return m.spec.N }

// Points returns the current positions and radii. The slice aliases internal
// state: it is valid to read between Advance calls but must not be modified.
func (m *MobileNetwork) Points() []GeometricPoint { return m.pts }

// Snapshot builds the CSR topology for the current positions into sc's
// reusable storage (valid until sc's next generation call).
func (m *MobileNetwork) Snapshot(sc *Scratch) *Digraph {
	return sc.FromPoints(m.pts, m.spec.Torus)
}

// Advance moves every node one epoch forward under the mobility model.
func (m *MobileNetwork) Advance() {
	switch m.model {
	case MobilityResample:
		// Fresh positions, fixed radii: re-sampling draws radii too, so
		// restore the construction-time ones — hardware does not change when
		// a node moves.
		m.pts, m.parents = samplePoints(m.spec, m.r, m.pts, m.parents)
		for i := range m.pts {
			m.pts[i].Radius = m.radii[i]
		}
	case MobilityWaypoint:
		for i := range m.pts {
			dx := m.destX[i] - m.pts[i].X
			dy := m.destY[i] - m.pts[i].Y
			if m.spec.Torus {
				// Walk the shortest toroidal path — matching the wrap-around
				// metric Snapshot builds the graph with — not the Euclidean
				// straight line.
				dx = wrapDelta(dx)
				dy = wrapDelta(dy)
			}
			d := math.Hypot(dx, dy)
			if d <= m.speed[i] {
				// Arrived: settle on the waypoint this epoch, choose the next
				// leg for subsequent epochs.
				m.pts[i].X, m.pts[i].Y = m.destX[i], m.destY[i]
				m.pickWaypoint(i)
				continue
			}
			m.pts[i].X = wrapPos(m.pts[i].X+dx/d*m.speed[i], m.spec.Torus)
			m.pts[i].Y = wrapPos(m.pts[i].Y+dy/d*m.speed[i], m.spec.Torus)
		}
	}
}

// wrapDelta maps a coordinate displacement to its shortest toroidal
// equivalent in [-1/2, 1/2].
func wrapDelta(d float64) float64 {
	if d > 0.5 {
		return d - 1
	}
	if d < -0.5 {
		return d + 1
	}
	return d
}

// wrapPos maps a stepped coordinate back into [0, 1) on the torus. Off the
// torus the step stays on the segment between two in-range points, so no
// wrap is needed.
func wrapPos(x float64, torus bool) float64 {
	if !torus {
		return x
	}
	return wrapOrReflect(x, true)
}
