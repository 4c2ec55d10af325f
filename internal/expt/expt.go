// Package expt defines one registered, runnable experiment per theorem and
// figure of the paper (the experiment ↔ paper index lives in README.md,
// "Experiment index"). Each experiment regenerates a table whose *shape*
// validates the paper's claim: who wins, by what factor, and how quantities
// scale in n, d, D and λ.
//
// An experiment is a declarative grid spec on the internal/campaign engine:
// Points enumerates its grid, Run executes the trials of one point (through
// sweep.RunTrialsScratch), and Render rebuilds its tables from the recorded
// per-point samples. The engine owns seeding, sharding, JSONL checkpointing
// and resume; Experiment.Run wraps it for in-memory callers (tests, the
// root-level benchmark harness, cmd/experiments).
package expt

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/campaign"
	"repro/internal/graph"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/sweep"
)

// Config controls experiment scale and reproducibility (an alias of the
// engine's config so campaigns and experiments share one type).
type Config = campaign.Config

// trials returns the per-point repetition count for the configured scale.
func trials(c Config) int {
	if c.Full {
		return 30
	}
	return 8
}

// Trials exposes the per-point repetition count (for record metadata).
func Trials(c Config) int { return trials(c) }

// Experiment is a registered, runnable reproduction unit: identity plus its
// campaign grid spec.
type Experiment struct {
	ID       string // stable identifier, e.g. "E1"
	Title    string
	PaperRef string // theorem/figure the experiment validates
	Campaign campaign.Campaign
}

// Run executes the experiment's whole grid in memory and renders its
// tables — the non-streaming path used by tests and benchmarks. The
// streaming path (checkpoints, shards, resume) is campaign.Run over Units.
func (e Experiment) Run(cfg Config) []*sweep.Table {
	rs, err := campaign.Run([]campaign.Unit{{ID: e.ID, C: e.Campaign}},
		campaign.RunOptions{Config: cfg, Trials: trials(cfg)})
	if err != nil {
		// In-memory runs have no I/O; an error here is a malformed campaign.
		panic(fmt.Sprintf("expt %s: %v", e.ID, err))
	}
	return e.Campaign.Render(cfg, campaign.NewView(rs, e.ID))
}

var (
	registry    []Experiment
	registryIDs = map[string]int{} // id → index in registry
)

// register adds an experiment at init time. IDs must be non-empty and
// unique; violations are programming errors and panic with a message naming
// the offender.
func register(e Experiment) {
	if e.ID == "" {
		panic("expt: register: empty experiment ID (title " + e.Title + ")")
	}
	if _, dup := registryIDs[e.ID]; dup {
		panic("expt: register: duplicate experiment id " + e.ID)
	}
	if e.Campaign.Points == nil || e.Campaign.Run == nil || e.Campaign.Render == nil {
		panic("expt: register: experiment " + e.ID + " has an incomplete campaign")
	}
	registryIDs[e.ID] = len(registry)
	registry = append(registry, e)
}

// All returns every registered experiment sorted by ID (figures first, then
// theorem experiments, then extensions, then the geometric battery, then the
// network-lifetime battery, then the scale battery, then the
// channel-realism battery).
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return idLess(out[i].ID, out[j].ID) })
	return out
}

// Units adapts experiments to engine units.
func Units(es []Experiment) []campaign.Unit {
	out := make([]campaign.Unit, len(es))
	for i, e := range es {
		out[i] = campaign.Unit{ID: e.ID, C: e.Campaign}
	}
	return out
}

// idLess orders F* before E* before X* before G* before N* before S*
// before C*, numerically within a class. Unknown or empty IDs sort last,
// lexically.
func idLess(a, b string) bool {
	rank := func(id string) (int, int) {
		if id == "" {
			return 8, 0
		}
		class := 7
		switch id[0] {
		case 'F':
			class = 0
		case 'E':
			class = 1
		case 'X':
			class = 2
		case 'G':
			class = 3
		case 'N':
			class = 4
		case 'S':
			class = 5
		case 'C':
			class = 6
		}
		num := 0
		fmt.Sscanf(id[1:], "%d", &num)
		return class, num
	}
	ca, na := rank(a)
	cb, nb := rank(b)
	if ca != cb {
		return ca < cb
	}
	if na != nb {
		return na < nb
	}
	return a < b
}

// ByID looks an experiment up by its identifier. Empty IDs never match.
func ByID(id string) (Experiment, bool) {
	if id == "" {
		return Experiment{}, false
	}
	if i, ok := registryIDs[id]; ok {
		return registry[i], true
	}
	return Experiment{}, false
}

// --- shared helpers ---

// trialScratch is the per-worker scratch bundle the harness reuses across
// trials: graph-builder storage and the parked broadcast and gossip
// sessions. One lives in each sweep worker (see sweep.RunTrialsScratch), so
// trial loops allocate only protocol state instead of rebuilding every
// adjacency and counter array per trial.
type trialScratch struct {
	graph *graph.Scratch
	radio *radio.Scratch
}

func newTrialScratch() any {
	return &trialScratch{graph: graph.NewScratch(), radio: radio.NewScratch()}
}

// scratchOf unwraps the per-worker bundle (fresh buffers when the trial
// carries none, so call sites work under plain RunTrials too).
func scratchOf(t sweep.Trial) *trialScratch {
	if ts, ok := t.Scratch.(*trialScratch); ok {
		return ts
	}
	return newTrialScratch().(*trialScratch)
}

// runSweep is the standard point-trial fan-out: trials(cfg) repetitions from
// the point seed on cfg.Workers trial workers (one under Parallelism "off"),
// with the per-worker scratch bundle.
func runSweep(cfg Config, seed uint64, fn func(sweep.Trial) sweep.Metrics) campaign.Samples {
	workers := cfg.Workers
	if cfg.Parallelism == "off" {
		workers = 1
	}
	return sweep.RunTrialsScratch(trials(cfg), seed, workers, newTrialScratch, fn)
}

// broadcastTrial holds everything needed to run one protocol/topology pair
// repeatedly.
type broadcastTrial struct {
	// makeGraph builds the per-trial topology and returns the source. The
	// scratch may be used for G(n,p)-style generation (the returned graph is
	// then valid for this trial only) or ignored for static topologies.
	makeGraph func(seed uint64, sc *graph.Scratch) (*graph.Digraph, graph.NodeID)
	// makeProto builds a fresh protocol instance per trial.
	makeProto func() radio.Broadcaster
	opts      radio.Options
	// makeOpts, when set, builds per-trial options (e.g. a jamming schedule
	// closed over a trial-seeded RNG) instead of the static opts.
	makeOpts func(seed uint64) radio.Options
}

// standard metric keys produced by runBroadcastTrials.
const (
	mSuccess   = "success"
	mRounds    = "informedRound"
	mTotalTx   = "totalTx"
	mTxPerNode = "txPerNode"
	mMaxNodeTx = "maxNodeTx"
	mInformedF = "informedFrac"
)

// runBroadcastTrials runs the spec trials(cfg) times from the given point
// seed and returns the standard metric samples. Failed runs report NaN for
// informedRound.
func runBroadcastTrials(cfg Config, seed uint64, spec broadcastTrial) campaign.Samples {
	return runSweep(cfg, seed, func(t sweep.Trial) sweep.Metrics {
		ts := scratchOf(t)
		g, src := spec.makeGraph(t.Seed, ts.graph)
		proto := spec.makeProto()
		opts := spec.opts
		if spec.makeOpts != nil {
			opts = spec.makeOpts(t.Seed)
		}
		res := radio.RunBroadcastWith(ts.radio, g, src, proto, rng.New(rng.SubSeed(t.Seed, 1)), opts)
		m := sweep.Metrics{
			mSuccess:   0,
			mTotalTx:   float64(res.TotalTx),
			mTxPerNode: res.TxPerNode(),
			mMaxNodeTx: float64(res.MaxNodeTx),
			mInformedF: float64(res.Informed) / float64(g.N()),
			mRounds:    math.NaN(),
		}
		if res.Completed() {
			m[mSuccess] = 1
			m[mRounds] = float64(res.InformedRound)
		}
		return m
	})
}

// log2 is a shorthand used across the experiment tables.
func log2(x float64) float64 { return math.Log2(x) }

// sparseP returns the δ·ln n/n operating point used for "sparse" G(n,p)
// workloads (δ = 8 keeps the Phase-3 informing capacity comfortably above
// ln n at simulation scale; see the core package tests for the analysis).
func sparseP(n int) float64 {
	return 8 * math.Log(float64(n)) / float64(n)
}

// denseP returns a dense operating point p = 5/√n (np² = 25, comfortably
// above the ≈1.5·ln n Phase-3 capacity the dense case needs) — safely above
// the paper's n^{-2/5} Phase-2 threshold for all simulated sizes.
func denseP(n int) float64 {
	return 5 / math.Sqrt(float64(n))
}
