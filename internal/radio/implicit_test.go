package radio

// Equivalence suite for implicit topologies: the engine run against a
// graph.Implicit backend must be bit-identical to the run against the
// materialization of that same backend, on every engine forcing — the
// implicit analogue of TestEngineConfigurationsBitIdentical. Collisions and
// History are excluded per the Result.Collisions contract (assertSameResult
// already encodes this).

import (
	"math"
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
// planet-scale path: an adaptive (un-forced) run on implicit G(n,p) must
// never trigger in-side queries — CheapIn stays false, i.e. the O(n + m)
// transpose index was never built and the session stayed O(n).
func TestImplicitGNPAutoRunStaysPushOnly(t *testing.T) {
	n := 512
	g := graph.NewImplicitGNP(n, 6*math.Log(float64(n))/float64(n), 5)
	res := RunBroadcast(g, 0, &sbern{q: 0.02}, rng.New(9), Options{MaxRounds: 2500})
	if res.Informed < n/2 {
		t.Fatalf("broadcast stalled at %d/%d informed; workload is not representative", res.Informed, n)
	}
	if g.CheapIn() {
		t.Fatal("adaptive run on implicit G(n,p) built the transpose index; the push-only gate leaks in-side queries")
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
// fallback threshold to exercise the fan-out path on implicit rows.
func TestImplicitParallelOptionEquivalence(t *testing.T) {
	n := 2048
	g := graph.NewImplicitGNP(n, 4e-3, 31)
	mat := graph.MaterializeImplicit(g)
	run := func(gr graph.Implicit, par bool) *Result {
		return RunBroadcast(gr, 0, &sbern{q: 0.4}, rng.New(6),
			Options{MaxRounds: 400, Parallel: par, Workers: 4})
	}
	want := run(mat, false)
	assertSameResult(t, "parallel/materialized", want, run(mat, true))
	assertSameResult(t, "parallel/implicit", want, run(g, true))
}
