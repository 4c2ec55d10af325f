package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"math"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/energy"
	"repro/internal/expt"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
)

// TestWorkloadsSmoke runs every workload at tiny sizes, untraced and
// traced, through the same runner the benchmark uses.
func TestWorkloadsSmoke(t *testing.T) {
	var exps []expt.Experiment
	for _, id := range []string{"F2", "E9", "X3", "C2"} {
		e, ok := expt.ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		exps = append(exps, e)
	}
	tiny := map[string]func(dir string) workload{
		"campaign-reduced": func(dir string) workload { return newCampaignReduced(7, dir, exps) },
		"alg1-gnp":         func(string) workload { return newAlg1GNP(7, 1<<10) },
		"alg3-rgg-energy":  func(string) workload { return newAlg3RGGEnergy(7, 1<<9, 2) },
		"service-drain":    func(dir string) workload { return newServiceDrain(7, dir, []string{"F2", "E9", "X3"}, 1) },
	}
	if got, want := slices.Sorted(maps.Keys(tiny)), workloadNames(); !slices.Equal(got, want) {
		t.Fatalf("smoke covers %v, the benchmark defines %v", got, want)
	}
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "/untraced", true: "/traced"}[trace], func(t *testing.T) {
				var out bytes.Buffer
				r, err := measure(tiny[name](t.TempDir()), runOpts{minOps: 5, trace: trace}, &out, &out)
				if err != nil {
					t.Fatalf("%v\n%s", err, out.String())
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 5 {
					t.Fatalf("result %+v\n%s", r, out.String())
				}
				for _, d := range catalog {
					m, ok := r.Metrics[d.Name]
					if ok != (d.E2E != trace) {
						t.Errorf("metric %s present=%v in a run with trace=%v", d.Name, ok, trace)
					}
					if ok && d.E2E && !(m.Value > 0) {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
					}
				}
				if u := r.Metrics["trace.unattributed_frac"].Value; trace && (u < 0 || u > 1) {
					t.Errorf("trace.unattributed_frac = %v", u)
				}
			})
		}
	}
}

// TestSelfTimeArithmetic pins self time as duration minus the union of the
// children's intervals clipped to the parent, and unattributed time as the
// root's wall time under no layer span.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []Span{
		{ID: 0, Parent: noSpan, Name: "phase", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "worker", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "rpc.lease", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "worker.run_point", Start: 20, End: 50}, // overlaps its sibling
		{ID: 4, Parent: 1, Name: "rpc.complete", Start: 60, End: 70},
		{ID: 5, Parent: 4, Name: "server.complete", Start: 62, End: 75}, // outlives its parent
	}
	st := newSpanTable(spans)
	if want := []int64{0, 50, 20, 30, 2, 13}; !slices.Equal(st.self, want) {
		t.Errorf("self times %v, want %v", st.self, want)
	}
	if got := st.unattributed(0); math.Abs(got-0.45) > 1e-12 {
		t.Errorf("unattributed %v, want 0.45 (layer spans cover [10,50] and [60,75])", got)
	}
	if got := st.selfS("worker"); got != 50e-9 {
		t.Errorf("selfS(worker) = %v", got)
	}
}

// TestPercentileRule pins nearest-rank percentiles and the rule that picks
// the highest percentile with at least ten samples beyond it.
func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	if p50, p90 := percentile(xs, 0.5), percentile(xs, 0.9); p50 != 50 || p90 != 90 {
		t.Errorf("p50, p90 = %v, %v; want 50, 90", p50, p90)
	}
	if percentile(nil, 0.9) != 0 || percentile([]float64{7}, 0.9) != 7 {
		t.Error("percentile of zero or one sample")
	}
	// The smoothed percentile averages the ⌊√n⌋/2 ranks on each side of the
	// nearest rank: 45..55 for p50 and 85..95 for p90 of 1..100.
	if p50, p90 := smoothedPercentile(xs, 0.5), smoothedPercentile(xs, 0.9); p50 != 50 || p90 != 90 {
		t.Errorf("smoothed p50, p90 = %v, %v; want 50, 90", p50, p90)
	}
	if got := smoothedPercentile([]float64{100, 3, 1, 4, 2}, 0.9); got != 52 {
		t.Errorf("smoothed p90 of 1,2,3,4,100 = %v, want 52 (the mean of 4 and 100)", got)
	}
	if smoothedPercentile(nil, 0.5) != 0 {
		t.Error("smoothed percentile of no samples")
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{3.1, 1.2, 5.5}); q1 != 1.2 || q3 != 5.5 {
		t.Errorf("quartiles of three = %v, %v; want 1.2, 5.5", q1, q3)
	}
}

// TestReferenceScaling pins the reference-speed scaling: an op's time is
// scaled by refNominalMs over the median of the three kernel times nearest
// its start, and a throughput by the op-time weighted mean of those scales.
func TestReferenceScaling(t *testing.T) {
	at := func(msec int) time.Time { return time.Unix(0, 0).Add(time.Duration(msec) * time.Millisecond) }
	nom := refNominalMs
	h := &hostProbe{samples: []refSample{{at(0), nom}, {at(100), 2 * nom}, {at(200), nom}, {at(300), 20 * nom}, {at(400), 2 * nom}}}
	for _, c := range []struct {
		start int
		want  float64
	}{
		{-50, 1},    // before every sample: the first three
		{90, 1},     // samples at 0, 100 and 200
		{310, 0.5},  // samples at 200, 300 and 400
		{1000, 0.5}, // after every sample: the last three
	} {
		if got := h.scaleAt(at(c.start)); got != c.want {
			t.Errorf("scaleAt(%d ms) = %v, want %v", c.start, got, c.want)
		}
	}
	scaled, mean := h.scaleOps([]float64{10, 30}, []time.Time{at(-50), at(310)})
	if !slices.Equal(scaled, []float64{10, 15}) || mean != 25.0/40 {
		t.Errorf("scaleOps = %v, %v; want [10 15], 0.625", scaled, mean)
	}
	if got := (&hostProbe{}).scaleAt(at(0)); got != 0 {
		t.Errorf("scaleAt without samples = %v, want 0", got)
	}
}

// stubProto is a minimal broadcaster; the embedding types add the optional
// engine interfaces in every combination.
type stubProto struct{}

func (stubProto) Name() string                          { return "stub" }
func (stubProto) Begin(int, graph.NodeID, *rng.RNG)     {}
func (stubProto) BeginRound(int)                        {}
func (stubProto) ShouldTransmit(int, graph.NodeID) bool { return false }
func (stubProto) OnInformed(int, graph.NodeID)          {}
func (stubProto) Quiesced(int) bool                     { return true }

type stubBatch struct{ stubProto }

func (s stubBatch) AppendTransmitters(_ int, _, dst []graph.NodeID) []graph.NodeID { return dst }

type stubUniform struct{ stubProto }

func (stubUniform) RoundProb(int) (float64, bool) { return 0, false }
func (stubUniform) SkipSilent(from, _ int) int    { return from }

type stubBoth struct{ stubUniform }

func (s stubBoth) AppendTransmitters(_ int, _, dst []graph.NodeID) []graph.NodeID { return dst }

// TestWrapperImplementsSameInterfaces: the engine picks its decision path
// and its skipping from type assertions, so the wrapper must answer them as
// the wrapped protocol does.
func TestWrapperImplementsSameInterfaces(t *testing.T) {
	for _, p := range []radio.Broadcaster{stubProto{}, stubBatch{}, stubUniform{}, stubBoth{},
		core.NewAlgorithm1(0.1), core.NewAlgorithm3(64, 8, 2), &baseline.FixedProb{Q: 0.1}} {
		w := wrapProto(p, &protoStats{})
		_, pb := p.(radio.BatchBroadcaster)
		_, wb := w.(radio.BatchBroadcaster)
		_, pu := p.(radio.UniformRound)
		_, wu := w.(radio.UniformRound)
		if pb != wb || pu != wu {
			t.Errorf("%T: batch %v→%v, uniform %v→%v", p, pb, wb, pu, wu)
		}
	}
}

// TestWrappedRunsBitIdentical: traced equals untraced at the protocol
// boundary, and a wrapped uniform protocol still skips silent rounds.
func TestWrappedRunsBitIdentical(t *testing.T) {
	n := 2048
	p := 8 * math.Log(float64(n)) / float64(n)
	gnp := graph.GNPDirected(n, p, rng.New(11))
	rgg := graph.RGG(n, 2*graph.ConnectivityRadius(n), true, rng.New(12))
	spec := &energy.Spec{Model: energy.CC2420(), Budget: 1e9}
	cases := []struct {
		name  string
		g     *graph.Digraph
		proto func() radio.Broadcaster
		opt   radio.Options
	}{
		{"algorithm1", gnp, func() radio.Broadcaster { return core.NewAlgorithm1(p) }, radio.Options{MaxRounds: 10000}},
		{"algorithm3", rgg, func() radio.Broadcaster { return core.NewAlgorithm3(n, 40, 2) },
			radio.Options{MaxRounds: 1 << 20, Reception: radio.Fade(0.1), Energy: spec}},
		{"fixedprob", gnp, func() radio.Broadcaster { return &baseline.FixedProb{Q: 0.002, Window: 400} },
			radio.Options{MaxRounds: 5000}},
	}
	for _, c := range cases {
		raw := radio.RunBroadcast(c.g, 0, c.proto(), rng.New(5), c.opt)
		var st protoStats
		wrapped := radio.RunBroadcast(c.g, 0, wrapProto(c.proto(), &st), rng.New(5), c.opt)
		if fingerprint(raw, true) != fingerprint(wrapped, true) {
			t.Errorf("%s: wrapped run differs: rounds %d vs %d, tx %d vs %d", c.name, raw.Rounds, wrapped.Rounds, raw.TotalTx, wrapped.TotalTx)
		}
		if c.name == "fixedprob" && st.rounds >= int64(wrapped.Rounds) {
			t.Errorf("fixedprob: %d of %d rounds executed; the wrapper stopped silent-round skipping", st.rounds, wrapped.Rounds)
		}
	}
}

// twiceProto breaks Theorem 2.1: the source transmits again in round 2.
type twiceProto struct {
	*core.Algorithm1
	src graph.NodeID
}

func (p *twiceProto) Begin(n int, src graph.NodeID, r *rng.RNG) {
	p.src = src
	p.Algorithm1.Begin(n, src, r)
}

func (p *twiceProto) AppendTransmitters(round int, informed, dst []graph.NodeID) []graph.NodeID {
	dst = p.Algorithm1.AppendTransmitters(round, informed, dst)
	if round == 2 {
		dst = append(dst, p.src)
	}
	return dst
}

// TestAlgorithm1GateTrips: a node that transmits twice fails every trial.
func TestAlgorithm1GateTrips(t *testing.T) {
	n := 1 << 10
	p := 8 * math.Log(float64(n)) / float64(n)
	b := newAlg1GNP(3, n)
	b.proto = func(int) radio.Broadcaster { return &twiceProto{Algorithm1: core.NewAlgorithm1(p)} }
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	res, err := b.phase(nil, nil, func(units, _ int, _ time.Duration) bool { return units < 3 })
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 3 || !strings.Contains(strings.Join(res.failures, "\n"), "transmitted 2 times") {
		t.Fatalf("failed %d, failures %q", res.failed, res.failures)
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better string
		want   string
	}{
		{"same", base, scale(1.01), "lower", "unchanged"},
		{"slower", base, scale(1.2), "lower", "worse"},
		{"faster", base, scale(0.8), "lower", "better"},
		{"higher is better", base, scale(1.2), "higher", "better"},
		{"fewer per second", base, scale(0.8), "higher", "worse"},
		{"too noisy", wide, scale(0.95), "lower", "unresolved"},
		{"new set too noisy", base, wide, "lower", "unresolved"},
		{"noisy but every run better", wide, scale(0.5), "lower", "better"},
	} {
		if got := judge(c.a, c.b, c.better, 0.1).Verdict; got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// TestBenchmarkJSONMatchesCatalog keeps BENCHMARK.json and the metric
// catalog the program reports in step, within the benchmark contract's
// limits.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []boundDef `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&def); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %+v", w)
		}
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames())
	}
	var e2eDefs, layerDefs []metricDef
	for _, d := range catalog {
		if d.E2E {
			e2eDefs = append(e2eDefs, d)
		} else {
			layerDefs = append(layerDefs, d)
		}
	}
	if len(def.EndToEnd) != len(e2eDefs) || len(def.EndToEnd) > 16 {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalog", len(def.EndToEnd), len(e2eDefs))
	}
	maxBound := 0.0
	for i, m := range def.EndToEnd {
		d := e2eDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || !(m.Bound > 0 && m.Bound <= 0.25) {
			t.Errorf("end_to_end[%d] = %+v, catalog %+v", i, m, d)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range def.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(def.PerLayer) != len(layerDefs) || len(def.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalog", len(def.PerLayer), len(layerDefs))
	}
	seen := map[string]bool{}
	for i, m := range def.PerLayer {
		d := layerDefs[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, catalog %+v", i, m, d)
		}
	}
	for _, d := range catalog {
		if seen[d.Name] || !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("catalog entry %+v is repeated or malformed", d)
		}
		seen[d.Name] = true
	}
	if !slices.Equal(def.Paths, []string{"bench"}) || def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", def.Paths, def.RunSeconds)
	}
}
