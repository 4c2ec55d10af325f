package radio

// Equivalence suite for implicit topologies: the engine run against a
// graph.Implicit backend must be bit-identical to the run against the
// materialization of that same backend, on every engine forcing — the
// implicit analogue of TestEngineConfigurationsBitIdentical. Collisions and
// History are excluded per the Result.Collisions contract (assertSameResult
// already encodes this).

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/energy"
	"repro/internal/graph"
	"repro/internal/rng"
)

// implicitTestGraphs returns the two implicit acceptance backends with
// their materializations: per-row skip-sampled G(n,p) and the
// coordinates-only geometric index (heterogeneous radii, so in- and
// out-rows genuinely differ).
func implicitTestGraphs(t *testing.T) map[string]struct {
	imp graph.Implicit
	mat *graph.Digraph
} {
	t.Helper()
	n := 512
	gnp := graph.NewImplicitGNP(n, 6*math.Log(float64(n))/float64(n), 77)
	rc := graph.ConnectivityRadius(n)
	geo := graph.NewImplicitGeom(graph.GeomSpec{N: n, Radius: rc, RadiusMax: 3 * rc, Torus: true}, rng.New(78))
	return map[string]struct {
		imp graph.Implicit
		mat *graph.Digraph
	}{
		"gnp": {gnp, graph.MaterializeImplicit(gnp)},
		"udg": {geo, graph.MaterializeImplicit(geo)},
	}
}

// TestImplicitBitIdenticalToMaterialized is the headline pin: every kernel
// forcing × skip setting × energy metering produces the
// same result whether the engine reads CSR rows or re-derives them.
func TestImplicitBitIdenticalToMaterialized(t *testing.T) {
	defer SetEngineOverrides(EngineOverrides{})

	configs := []struct {
		name string
		o    EngineOverrides
	}{
		{"default", EngineOverrides{}},
		{"push", EngineOverrides{Kernel: KernelPush}},
		{"pull", EngineOverrides{Kernel: KernelPull}},
		{"parallel", EngineOverrides{Kernel: KernelParallel}},
		{"dense", EngineOverrides{Kernel: KernelDense}},
		{"noskip", EngineOverrides{DisableSkip: true}},
		{"pull-noskip", EngineOverrides{Kernel: KernelPull, DisableSkip: true}},
	}
	specs := map[string]func() *energy.Spec{
		"nometer": func() *energy.Spec { return nil },
		"budget": func() *energy.Spec {
			return &energy.Spec{Model: energy.CC2420(), Budget: 150, TrackPartition: true}
		},
	}
	for gname, pair := range implicitTestGraphs(t) {
		for ename, mkSpec := range specs {
			run := func(g graph.Implicit) *Result {
				return RunBroadcast(g, 0, &sbern{q: 0.02}, rng.New(42),
					Options{MaxRounds: 2500, Energy: mkSpec()})
			}
			for _, cfg := range configs {
				SetEngineOverrides(cfg.o)
				want := run(pair.mat)
				got := run(pair.imp)
				SetEngineOverrides(EngineOverrides{})
				assertSameResult(t, gname+"/"+ename+"/"+cfg.name, want, got)
			}
		}
	}
}

// TestImplicitGNPAutoRunStaysPushOnly pins the memory contract of the
// planet-scale path: implicit G(n,p) serves no in-rows, so no run on it can
// build an O(n + m) index and the session stays O(n).
func TestImplicitGNPAutoRunStaysPushOnly(t *testing.T) {
	n := 512
	g := graph.NewImplicitGNP(n, 6*math.Log(float64(n))/float64(n), 5)
	res := RunBroadcast(g, 0, &sbern{q: 0.02}, rng.New(9), Options{MaxRounds: 2500})
	if res.Informed < n/2 {
		t.Fatalf("broadcast stalled at %d/%d informed; workload is not representative", res.Informed, n)
	}
	if _, ok := any(g).(graph.InRows); ok {
		t.Fatal("implicit G(n,p) serves in-rows; the engine would price and run pull on it")
	}
}

// TestImplicitGNPAutoRunIgnoresEarlierForcing pins the determinism contract
// on one implicit G(n,p) object: an auto run reports the same Result before
// and after a forced-pull run on the same graph. Forcing pull must not leave
// state on the graph that turns pull on for later runs (it would change
// Result.Collisions, which pull counts at uninformed receivers only).
func TestImplicitGNPAutoRunIgnoresEarlierForcing(t *testing.T) {
	defer SetEngineOverrides(EngineOverrides{})
	n := 4096
	g := graph.NewImplicitGNP(n, 8*math.Log(float64(n))/float64(n), 5)
	run := func() *Result {
		return RunBroadcast(g, 0, &sbern{q: 0.02}, rng.New(9), Options{MaxRounds: 3000})
	}
	before := run()
	SetEngineOverrides(EngineOverrides{Kernel: KernelPull})
	run()
	SetEngineOverrides(EngineOverrides{})
	if after := run(); !reflect.DeepEqual(before, after) {
		t.Fatalf("auto run changed after a forced-pull run on the same graph: collisions %d, then %d",
			before.Collisions, after.Collisions)
	}
}

// TestImplicitLossyEquivalence covers the lossy channel on implicit rows:
// hashed per-edge draws are order-independent, so implicit row enumeration
// must reach exactly the verdicts CSR iteration does. RecordHistory pins
// both runs to transmitter-side kernels so the collision counts are
// comparable too (without it the CSR run may adaptively pull, which counts
// uninformed receivers only).
func TestImplicitLossyEquivalence(t *testing.T) {
	for gname, pair := range implicitTestGraphs(t) {
		run := func(g graph.Implicit) *Result {
			return RunBroadcast(g, 0, &sbern{q: 0.05}, rng.New(11),
				Options{MaxRounds: 1200, Reception: LossyChannel(0.2), RecordHistory: true})
		}
		want := run(pair.mat)
		got := run(pair.imp)
		if want.Collisions != got.Collisions {
			t.Fatalf("%s: lossy collision counts differ: %d vs %d", gname, want.Collisions, got.Collisions)
		}
		assertSameResult(t, gname+"/lossy", want, got)
	}
}

// TestImplicitParallelOptionEquivalence drives the sharded kernel through
// Options.Parallel (not just the override) far enough past the serial
// fallback threshold to exercise the fan-out path, on the materialization of
// an implicit G(n,p): the sharded kernel reads CSR rows only.
func TestImplicitParallelOptionEquivalence(t *testing.T) {
	mat := graph.MaterializeImplicit(graph.NewImplicitGNP(2048, 4e-3, 31))
	run := func(par bool) *Result {
		return RunBroadcast(mat, 0, &sbern{q: 0.4}, rng.New(6),
			Options{MaxRounds: 400, Parallel: par, Workers: 4})
	}
	assertSameResult(t, "parallel/materialized", run(false), run(true))
}
