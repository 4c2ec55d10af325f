// Package cliutil parses the compact topology/protocol spec strings used by
// the command-line tools, e.g.
//
//	-topo  "gnp:n=1024,p=0.05"      -proto "algorithm1"
//	-topo  "grid:w=32,h=32"         -proto "algorithm3:beta=2"
//	-topo  "fig2:n=128,d=96"        -proto "cr"
//	-topo  "rgg:n=800,rmin=0.08,rmax=0.2"
//
// A spec is NAME[:key=value,...]. Unknown keys are rejected so typos fail
// loudly instead of silently running a different experiment.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// Topology describes a parsed topology spec; Build generates a concrete
// instance for one trial seed.
type Topology struct {
	Name   string
	N      int // nodes of a built instance (filled by Describe)
	D      int // diameter hint for protocols that need one
	Source graph.NodeID
	Build  func(seed uint64) *graph.Digraph
}

// params is a parsed key=value list with required-key tracking.
type params struct {
	spec string
	kv   map[string]string
	used map[string]bool
}

func parseSpec(spec string) (string, *params, error) {
	name, rest, _ := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	if name == "" {
		return "", nil, fmt.Errorf("empty spec")
	}
	p := &params{spec: spec, kv: map[string]string{}, used: map[string]bool{}}
	if rest != "" {
		for _, pair := range strings.Split(rest, ",") {
			k, v, ok := strings.Cut(pair, "=")
			if !ok {
				return "", nil, fmt.Errorf("%q: malformed key=value %q", spec, pair)
			}
			p.kv[strings.TrimSpace(k)] = strings.TrimSpace(v)
		}
	}
	return name, p, nil
}

func (p *params) intOr(key string, def int) (int, error) {
	p.used[key] = true
	s, ok := p.kv[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%q: key %s: %v", p.spec, key, err)
	}
	return v, nil
}

func (p *params) floatOr(key string, def float64) (float64, error) {
	p.used[key] = true
	s, ok := p.kv[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("%q: key %s: %v", p.spec, key, err)
	}
	return v, nil
}

func (p *params) strOr(key, def string) (string, error) {
	p.used[key] = true
	s, ok := p.kv[key]
	if !ok {
		return def, nil
	}
	return s, nil
}

func (p *params) boolOr(key string, def bool) (bool, error) {
	p.used[key] = true
	s, ok := p.kv[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseBool(s)
	if err != nil {
		return false, fmt.Errorf("%q: key %s: %v", p.spec, key, err)
	}
	return v, nil
}

func (p *params) checkUnused() error {
	for k := range p.kv {
		if !p.used[k] {
			return fmt.Errorf("%q: unknown key %q", p.spec, k)
		}
	}
	return nil
}

// ParseTopology builds a Topology from a spec string. The returned
// Topology's N and D describe a probe instance built with seed 0.
func ParseTopology(spec string) (*Topology, error) {
	name, p, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	var topo *Topology
	switch name {
	case "gnp":
		n, err1 := p.intOr("n", 1024)
		prob, err2 := p.floatOr("p", 0.05)
		sym, err3 := p.boolOr("sym", false)
		if err := firstErr(err1, err2, err3); err != nil {
			return nil, err
		}
		topo = &Topology{Name: name, Build: func(seed uint64) *graph.Digraph {
			if sym {
				return graph.GNPSymmetric(n, prob, rng.New(seed))
			}
			return graph.GNPDirected(n, prob, rng.New(seed))
		}}
	case "grid":
		w, err1 := p.intOr("w", 16)
		h, err2 := p.intOr("h", 16)
		if err := firstErr(err1, err2); err != nil {
			return nil, err
		}
		topo = &Topology{Name: name, Build: func(uint64) *graph.Digraph { return graph.Grid2D(w, h) }}
	case "path":
		n, err1 := p.intOr("n", 256)
		if err1 != nil {
			return nil, err1
		}
		topo = &Topology{Name: name, Build: func(uint64) *graph.Digraph { return graph.Path(n) }}
	case "cycle":
		n, err1 := p.intOr("n", 256)
		if err1 != nil {
			return nil, err1
		}
		topo = &Topology{Name: name, Build: func(uint64) *graph.Digraph { return graph.Cycle(n) }}
	case "star":
		k, err1 := p.intOr("k", 64)
		if err1 != nil {
			return nil, err1
		}
		topo = &Topology{Name: name, Build: func(uint64) *graph.Digraph { return graph.Star(k) }}
	case "tree":
		n, err1 := p.intOr("n", 255)
		if err1 != nil {
			return nil, err1
		}
		topo = &Topology{Name: name, Build: func(uint64) *graph.Digraph { return graph.CompleteBinaryTree(n) }}
	case "complete":
		n, err1 := p.intOr("n", 64)
		if err1 != nil {
			return nil, err1
		}
		topo = &Topology{Name: name, Build: func(uint64) *graph.Digraph { return graph.Complete(n) }}
	case "rgg":
		n, err1 := p.intOr("n", 800)
		rmin, err2 := p.floatOr("rmin", 0.1)
		rmax, err3 := p.floatOr("rmax", 0.1)
		torus, err4 := p.boolOr("torus", false)
		clusters, err5 := p.intOr("cluster", 0)
		spread, err6 := p.floatOr("spread", 0)
		if err := firstErr(err1, err2, err3, err4, err5, err6); err != nil {
			return nil, err
		}
		spec := graph.GeomSpec{N: n, Radius: rmin, RadiusMax: rmax, Torus: torus,
			Clusters: clusters, Spread: spread}
		if clusters > 0 || spread > 0 {
			spec.Placement = graph.PlaceCluster
		}
		topo = &Topology{Name: name, Build: func(seed uint64) *graph.Digraph {
			g, _ := graph.Geometric(spec, rng.New(seed))
			return g
		}}
	case "udg":
		// Unit-disk graph: homogeneous radius, symmetric links. r defaults to
		// twice the connectivity threshold (connected w.h.p.).
		n, err1 := p.intOr("n", 1024)
		r, err2 := p.floatOr("r", 0)
		torus, err3 := p.boolOr("torus", false)
		if err := firstErr(err1, err2, err3); err != nil {
			return nil, err
		}
		if r == 0 {
			r = 2 * graph.ConnectivityRadius(n)
		}
		rr := r
		topo = &Topology{Name: name, Build: func(seed uint64) *graph.Digraph {
			return graph.RGG(n, rr, torus, rng.New(seed))
		}}
	case "mobile":
		// One epoch snapshot of a mobile geometric network: epoch=k advances
		// the mobility model k epochs before building the topology.
		n, err1 := p.intOr("n", 512)
		r, err2 := p.floatOr("r", 0)
		torus, err3 := p.boolOr("torus", false)
		model, err4 := p.strOr("model", "waypoint")
		vmin, err5 := p.floatOr("vmin", 0.02)
		vmax, err6 := p.floatOr("vmax", 0.05)
		epoch, err7 := p.intOr("epoch", 0)
		if err := firstErr(err1, err2, err3, err4, err5, err6, err7); err != nil {
			return nil, err
		}
		if r == 0 {
			r = 2 * graph.ConnectivityRadius(n)
		}
		var mm graph.MobilityModel
		switch model {
		case "waypoint":
			mm = graph.MobilityWaypoint
		case "resample":
			mm = graph.MobilityResample
		default:
			return nil, fmt.Errorf("%q: model must be waypoint or resample", spec)
		}
		if epoch < 0 {
			return nil, fmt.Errorf("%q: epoch must be >= 0", spec)
		}
		gspec := graph.GeomSpec{N: n, Radius: r, Torus: torus}
		topo = &Topology{Name: name, Build: func(seed uint64) *graph.Digraph {
			m := graph.NewMobileNetwork(gspec, mm, vmin, vmax, rng.New(seed))
			for e := 0; e < epoch; e++ {
				m.Advance()
			}
			return m.Snapshot(graph.NewScratch())
		}}
	case "obs43":
		n, err1 := p.intOr("n", 128)
		if err1 != nil {
			return nil, err1
		}
		topo = &Topology{Name: name, Build: func(uint64) *graph.Digraph {
			return graph.NewObs43Network(n).G
		}}
	case "fig2":
		n, err1 := p.intOr("n", 128)
		d, err2 := p.intOr("d", 0)
		if err := firstErr(err1, err2); err != nil {
			return nil, err
		}
		topo = &Topology{Name: name, Build: func(uint64) *graph.Digraph {
			dd := d
			if dd == 0 {
				dd = 6 * n
			}
			return graph.NewFig2Network(n, dd).G
		}}
	case "hypercube":
		dim, err1 := p.intOr("dim", 8)
		if err1 != nil {
			return nil, err1
		}
		topo = &Topology{Name: name, Build: func(uint64) *graph.Digraph { return graph.Hypercube(dim) }}
	case "torus":
		w, err1 := p.intOr("w", 16)
		h, err2 := p.intOr("h", 16)
		if err := firstErr(err1, err2); err != nil {
			return nil, err
		}
		topo = &Topology{Name: name, Build: func(uint64) *graph.Digraph { return graph.Torus2D(w, h) }}
	case "regular":
		n, err1 := p.intOr("n", 512)
		deg, err2 := p.intOr("deg", 8)
		if err := firstErr(err1, err2); err != nil {
			return nil, err
		}
		topo = &Topology{Name: name, Build: func(seed uint64) *graph.Digraph {
			return graph.RandomRegularOut(n, deg, rng.New(seed))
		}}
	case "barbell":
		k, err1 := p.intOr("k", 32)
		bridge, err2 := p.intOr("bridge", 8)
		if err := firstErr(err1, err2); err != nil {
			return nil, err
		}
		topo = &Topology{Name: name, Build: func(uint64) *graph.Digraph {
			return graph.BarbellNetwork(k, bridge)
		}}
	case "caterpillar":
		spine, err1 := p.intOr("spine", 32)
		legs, err2 := p.intOr("legs", 4)
		if err := firstErr(err1, err2); err != nil {
			return nil, err
		}
		topo = &Topology{Name: name, Build: func(uint64) *graph.Digraph {
			return graph.Caterpillar(spine, legs)
		}}
	default:
		return nil, fmt.Errorf("unknown topology %q (have gnp, grid, path, cycle, star, tree, complete, rgg, udg, mobile, obs43, fig2, hypercube, torus, regular, barbell, caterpillar)", name)
	}
	if err := p.checkUnused(); err != nil {
		return nil, err
	}
	var g *graph.Digraph
	if err := probe(spec, func() { g = topo.Build(0) }); err != nil {
		return nil, err
	}
	topo.N = g.N()
	topo.Source = 0
	ecc, _ := graph.Eccentricity(g, topo.Source)
	if ecc < 1 {
		ecc = 1
	}
	topo.D = ecc
	return topo, nil
}

// ParseBroadcaster builds a broadcast protocol from a spec string. n and D
// are the topology's size and diameter hint (used as defaults for protocols
// that need them). Returns a factory so sweeps get fresh state per trial.
func ParseBroadcaster(spec string, n, D int) (func() radio.Broadcaster, error) {
	name, p, err := parseSpec(spec)
	if err != nil {
		return nil, err
	}
	var factory func() radio.Broadcaster
	switch name {
	case "algorithm1":
		prob, err1 := p.floatOr("p", 0)
		beta, err2 := p.floatOr("beta", 0)
		noP2, err3 := p.boolOr("nophase2", false)
		if err := firstErr(err1, err2, err3); err != nil {
			return nil, err
		}
		if prob == 0 {
			return nil, fmt.Errorf("algorithm1 needs p= (the G(n,p) edge probability)")
		}
		factory = func() radio.Broadcaster {
			a := core.NewAlgorithm1(prob)
			a.Phase3Beta = beta
			a.DisablePhase2 = noP2
			return a
		}
	case "algorithm3":
		beta, err1 := p.floatOr("beta", 2)
		dOver, err2 := p.intOr("d", D)
		if err := firstErr(err1, err2); err != nil {
			return nil, err
		}
		factory = func() radio.Broadcaster { return core.NewAlgorithm3(n, dOver, beta) }
	case "tradeoff":
		lambda, err1 := p.intOr("lambda", 0)
		beta, err2 := p.floatOr("beta", 2)
		if err := firstErr(err1, err2); err != nil {
			return nil, err
		}
		if lambda == 0 {
			lambda = dist.LambdaFor(n, D)
		}
		factory = func() radio.Broadcaster { return core.NewTradeoff(n, lambda, beta) }
	case "cr":
		beta, err1 := p.floatOr("beta", 2)
		dOver, err2 := p.intOr("d", D)
		if err := firstErr(err1, err2); err != nil {
			return nil, err
		}
		factory = func() radio.Broadcaster { return baseline.NewCzumajRytter(n, dOver, beta) }
	case "decay":
		phases, err1 := p.intOr("phases", 2*D+16)
		if err1 != nil {
			return nil, err1
		}
		factory = func() radio.Broadcaster { return baseline.NewDecay(phases) }
	case "unknown":
		beta, err1 := p.floatOr("beta", 2)
		if err1 != nil {
			return nil, err1
		}
		factory = func() radio.Broadcaster { return core.NewUnknownDiameter(n, beta) }
	case "flood":
		factory = func() radio.Broadcaster { return baseline.Flood{} }
	case "fixed":
		q, err1 := p.floatOr("q", 0.1)
		window, err2 := p.intOr("window", 0)
		if err := firstErr(err1, err2); err != nil {
			return nil, err
		}
		factory = func() radio.Broadcaster { return &baseline.FixedProb{Q: q, Window: window} }
	case "eg":
		prob, err1 := p.floatOr("p", 0)
		beta, err2 := p.floatOr("beta", 0)
		if err := firstErr(err1, err2); err != nil {
			return nil, err
		}
		if prob == 0 {
			return nil, fmt.Errorf("eg needs p= (the G(n,p) edge probability)")
		}
		factory = func() radio.Broadcaster {
			e := baseline.NewElsasserGasieniec(prob)
			e.Phase3Beta = beta
			return e
		}
	default:
		return nil, fmt.Errorf("unknown protocol %q (have algorithm1, algorithm3, tradeoff, cr, unknown, decay, flood, fixed, eg)", name)
	}
	if err := p.checkUnused(); err != nil {
		return nil, err
	}
	if err := probe(spec, func() { factory().Begin(n, 0, rng.New(0)) }); err != nil {
		return nil, err
	}
	return factory, nil
}

// ParseGossiper builds a gossip protocol factory plus a round budget for an
// n-node network.
func ParseGossiper(spec string, n int) (func() radio.Gossiper, int, error) {
	name, p, err := parseSpec(spec)
	if err != nil {
		return nil, 0, err
	}
	var factory func() radio.Gossiper
	var budget int
	switch name {
	case "algorithm2":
		prob, err1 := p.floatOr("p", 0)
		gamma, err2 := p.floatOr("gamma", 0)
		if err := firstErr(err1, err2); err != nil {
			return nil, 0, err
		}
		if prob == 0 {
			return nil, 0, fmt.Errorf("algorithm2 needs p= (the G(n,p) edge probability)")
		}
		factory = func() radio.Gossiper {
			a := core.NewAlgorithm2(prob)
			a.Gamma = gamma
			return a
		}
		budget = factory().(*core.Algorithm2).RoundBudget(n)
	case "tdma":
		sweeps, err1 := p.intOr("sweeps", 2*n)
		if err1 != nil {
			return nil, 0, err1
		}
		factory = func() radio.Gossiper { return &baseline.TDMAGossip{} }
		budget = n * sweeps
	case "uniform":
		q, err1 := p.floatOr("q", 0.05)
		rounds, err2 := p.intOr("rounds", 100000)
		if err := firstErr(err1, err2); err != nil {
			return nil, 0, err
		}
		factory = func() radio.Gossiper { return &baseline.UniformGossip{Q: q} }
		budget = rounds
	default:
		return nil, 0, fmt.Errorf("unknown gossip protocol %q (have algorithm2, tdma, uniform)", name)
	}
	if err := p.checkUnused(); err != nil {
		return nil, 0, err
	}
	if budget < 1 {
		return nil, 0, fmt.Errorf("%q: round budget %d: need at least one round", spec, budget)
	}
	if err := probe(spec, func() { factory().Begin(n, rng.New(0)) }); err != nil {
		return nil, 0, err
	}
	return factory, budget, nil
}

// probe runs build once under recover, so a parameter a generator or
// protocol rejects surfaces as an error at parse time instead of as a panic
// later inside a sweep.
func probe(spec string, build func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%q: %v", spec, r)
		}
	}()
	build()
	return nil
}

func firstErr(errs ...error) error {
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}
