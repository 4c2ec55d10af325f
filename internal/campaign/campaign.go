// Package campaign is the declarative experiment-grid engine: an experiment
// is data — a set of named grid points, a point→trials mapping, and a render
// stage that turns the collected per-point samples into tables — executed by
// one engine that owns seeding, sharding, checkpointing, resume, and
// progress reporting.
//
// The contract that makes sharded and resumed runs trustworthy is seeding:
// every point receives the base seed itself — never a function of execution
// order, shard layout, or which points a previous run already finished — so
// any partition of the grid, in any order, across any number of processes,
// produces records identical to one uninterrupted run. All points draw the
// same trial-seed sequence: the variance-reducing paired design the
// experiment batteries use for protocol comparisons (protocol A and B see
// the same topologies), and the seeding the committed goldens pin.
//
// Execution streams one JSONL Record per completed point through an
// append-only checkpoint sink (see record.go); Markdown, CSV and JSONL views
// are all rendered from the same record stream, so a table can be rebuilt
// from checkpoints without re-running anything.
package campaign

import (
	"fmt"

	"repro/internal/sweep"
)

// Config controls experiment scale and reproducibility. It is shared by
// every campaign (internal/expt aliases it as expt.Config).
type Config struct {
	// Full selects the paper-scale parameter grid; false runs a reduced grid
	// suitable for CI and benchmarks.
	Full bool
	// Seed is the base seed; every point and trial seed derives from it.
	Seed uint64
	// Workers bounds harness parallelism (0 = GOMAXPROCS).
	Workers int
	// GraphMode restricts graph-representation axes in campaigns that carry
	// one (the implicit-topology battery): "" enumerates every
	// representation, "csr" only materialized points, "implicit" only
	// generate-free points — the setting that lets planet-scale grids run on
	// small workers. Campaigns without a representation axis ignore it.
	// Point keys embed the representation, so records from different modes
	// never collide and resume works across mode changes.
	GraphMode string
	// Channel restricts channel-model axes in campaigns that carry one (the
	// channel-realism battery): "" enumerates every model; "binary", "fade"
	// or "duty" only that model's points — so a worker can run one channel
	// leg of a comparison grid. Point keys embed the channel, so records
	// from different restrictions never collide and resume works across
	// changes. Campaigns without a channel axis ignore it.
	Channel string
	// Parallelism "off" runs each point's trials on one worker whatever
	// Workers says; any other value leaves the trial pool to Workers.
	// Results are bit-identical either way — only scheduling changes.
	Parallelism string
}

// Check rejects a GraphMode or Channel outside the values documented
// above. The campaigns treat any other string as "every leg", so a typo
// would otherwise run the whole grid.
func (c Config) Check() error {
	switch c.GraphMode {
	case "", "csr", "implicit":
	default:
		return fmt.Errorf("campaign: unknown graph mode %q (want csr, implicit, or empty for every representation)", c.GraphMode)
	}
	switch c.Channel {
	case "", "binary", "fade", "duty":
	default:
		return fmt.Errorf("campaign: unknown channel %q (want binary, fade, duty, or empty for every model)", c.Channel)
	}
	return nil
}

// Samples is the result of one grid point: per-metric sample vectors,
// usually one entry per trial (scalar facts are stored as length-1 vectors).
// NaN marks a sample where the metric was absent or undefined.
type Samples = map[string][]float64

// Point is one cell of an experiment grid. Key identifies the point within
// its campaign — stable across runs, scales, and code motion, because the
// resume and shard machinery match on it. Params is the human/JSONL-facing
// string form of the coordinates; Data carries the typed payload
// (coordinates, constructors, specs) for the Run stage and is never
// serialised.
type Point struct {
	Key    string
	Params map[string]string
	Data   any
}

// Pt builds a single ad-hoc point for irregular grids: a key, a typed
// payload, and alternating name/value parameter pairs.
func Pt(key string, data any, params ...string) Point {
	if len(params)%2 != 0 {
		panic("campaign: Pt params must be name/value pairs")
	}
	p := Point{Key: key, Data: data}
	if len(params) > 0 {
		p.Params = make(map[string]string, len(params)/2)
		for i := 0; i < len(params); i += 2 {
			p.Params[params[i]] = params[i+1]
		}
	}
	return p
}

// Campaign is a declarative experiment: the grid, the per-point trial
// runner, and the table renderer. All three must be deterministic functions
// of their arguments — Points must enumerate the same keys in the same
// order for a given Config, and Run must depend only on (cfg, point, seed).
type Campaign struct {
	// Points enumerates the grid for the configured scale.
	Points func(cfg Config) []Point
	// Run executes every trial of one point and returns its sample vectors.
	// seed is the point seed, cfg.Seed (see the package doc); trial fan-out
	// inside Run should go through sweep.RunTrialsScratch with it.
	Run func(cfg Config, pt Point, seed uint64) Samples
	// Render builds the experiment's tables from the completed record set.
	// It runs only when every point of the campaign is present (unsharded
	// runs, or a resumed run over merged shard checkpoints).
	Render func(cfg Config, v View) []*sweep.Table
}
