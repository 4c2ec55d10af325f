// Package repro is a production-quality Go reproduction of
//
//	Berenbrink, Cooper, Hu — "Energy efficient randomised communication in
//	unknown AdHoc networks" (SPAA 2007; TCS 410 (2009) 2549–2561).
//
// The library implements the paper's three algorithms (energy-efficient
// broadcast on random networks with at most one transmission per node,
// gossiping on random networks, and known-diameter broadcast on arbitrary
// networks with the new selection distribution α), every substrate they
// need (a synchronous radio-network simulator with exact collision
// semantics, graph generators including both lower-bound constructions, the
// baseline protocols the paper compares against), and a harness that
// regenerates an experiment table for every theorem and figure.
//
// Start with README.md for the layout and the experiment ↔ paper index,
// and EXPERIMENTS.md for paper-vs-measured results. The runnable entry points are:
//
//	cmd/broadcast    — run one broadcast protocol on one topology
//	cmd/gossip       — run a gossip protocol
//	cmd/netgen       — generate topologies and print structural stats
//	cmd/experiments  — regenerate every experiment table
//	examples/...     — quickstart and scenario walk-throughs
//
// The package tree under internal/ is the implementation: core (the paper's
// algorithms), radio (the round engine), graph, dist, baseline, lowerbound,
// stats, sweep, expt, rng.
//
// Beyond the paper's G(n,p) setting, internal/graph carries a geometric ad
// hoc topology subsystem: random geometric / unit-disk graphs on the unit
// square or torus (the connectivity threshold is graph.ConnectivityRadius,
// r_c = sqrt(ln n/(π n))), Matérn-style clustered placement, per-node
// transmission radii (asymmetric links from heterogeneous transmit power),
// and a mobility layer (graph.MobileNetwork: random-waypoint or resample
// epochs emitting one CSR snapshot per epoch). Every geometric graph comes
// from one neighbour search, the graph.ImplicitGeom cell-grid index: a
// branch-free scan over each point's coordinates and squared radius, which
// the index copies into cell order. graph.Scratch builds the index into
// reusable storage and materializes it in O(n + m), and a graph whose nodes
// share one radius serves its out- and in-rows from one row array;
// the G1–G6 experiment battery in internal/expt maps broadcast and gossip
// behaviour across this model class. graph.Diameter and DiameterSampled
// run their BFS 64 sources at a time, one bit per source in a word per
// node.
//
// internal/energy extends the paper's transmission-count measure to a
// per-round radio energy model: every alive node is charged for exactly one
// state per round (transmit / receive / idle-listen / sleep; presets for
// the paper's unit-cost measure and a CC2420-class sensor radio), battery
// budgets deplete — a dead radio stops transmitting and, by default,
// receiving — and results report per-node residual charge plus the
// network-lifetime rounds (first death, half death, partition). Accounting
// is allocation-free and lazy: O(events) per round. No death round is
// predicted before a horizon that no battery can run out by (the least
// charge left over twice the largest state cost); from there on each node
// keeps a predicted death round, and a round that reaches the earliest of
// them makes one pass over all n. So the batch engine keeps its sublinear
// rounds while no battery nears empty, and it costs nothing when disabled.
// The N1–N5 battery in internal/expt measures lifetime vs protocol, the
// energy-latency Pareto front, listen-cost sensitivity, heterogeneous
// batteries, and mobile-epoch lifetime; note graph.MobileNetwork.Points
// returns a slice aliasing the model's internal state (read-only, between
// Advance calls).
//
// The experiment layer runs on internal/campaign, a declarative grid
// engine: an experiment is a Campaign — a point enumeration (a list of
// campaign.Pt points, every point carrying a stable key), a point→trials
// mapping over sweep.RunTrialsScratch, and a render stage that rebuilds
// tables from recorded samples. Every point runs on the base seed, so
// execution order, sharding (-shard k/N) and resume (-checkpoint +
// -resume, streaming one durable JSONL record per completed point with
// torn-tail repair) cannot change a result: shard unions and
// killed-then-resumed runs are record-identical to one uninterrupted run,
// and markdown, CSV and JSONL outputs are views over the same record
// stream. See README.md ("The campaign engine") and cmd/experiments.
//
// The engine's hot path is vectorised: every protocol in core and baseline
// implements radio.BatchBroadcaster and hands the engine its whole
// per-round transmitter set in one call — the Bernoulli-phase protocols
// draw it by geometric-skip sampling in O(transmitters) instead of one RNG
// flip per informed node, and Decay walks its window queue of active
// nodes. The per-node ShouldTransmit loop serves only test protocols; for
// the rest ShouldTransmit is the paper-literal oracle, held to the batch
// list every round by the shared-draw contract's oracle test (see
// README.md and the radio package docs). Every skip stream — a round's
// transmitter draw, a G(n,p) row — is one rng.AppendSkips call, whose
// loop keeps the generator in registers; each skip is the inversion
// floor(log u / log1p(-p)) of one draw, and a fast path estimates log u
// from a 256-cell table and a cubic, with no logarithm and no division,
// and keeps its floor only where a derived error margin proves it equal
// to the formula's, so every draw, and every G(n,p) graph built by
// skipping, is bit-identical to the formula. Both engines reuse per-worker
// storage the same way: a radio.Scratch parks one broadcast and one gossip
// session and resets the parked one in place for the next trial of the
// same size.
//
// On top of that sits the sparse round engine. Delivery is
// direction-optimizing across four kernels selected per round from exact
// cost estimates: transmitter-centric push (Σ deg(tx) per round), its
// receiver-sharded parallel variant, a receiver-centric pull kernel
// that iterates only the uninformed frontier's in-edges
// (Σ deg(uninformed), the late-phase winner; its collision count covers
// uninformed receivers only — Options.RecordHistory or a Tracer pins the
// transmitter-side count), and a word-parallel dense kernel for every
// round with Σ deg(tx) ≥ ⌈n/64⌉ — the word count of its resolution pass —
// on a materialized graph and a binary-decidable channel: carry-save
// hit accumulation into one {once, twice} word pair per 64 receivers (one
// cache line per edge's mark), fed four transmitter rows at a time so four
// row misses are in flight at once, and 64-receivers-at-a-time
// resolution, branch-free and transmitter-side exact. A round is priced
// only until the choice is settled: the out-degree sum stops at the first
// partial sum past the one threshold that can still change the kernel,
// and on a materialized graph the pull base Σ deg(uninformed) is the edge
// count minus the informed nodes' in-degrees, so a fresh session pays for
// one node instead of n. The cores go to
// trials: each grid point fans its trials over Config.Workers goroutines
// (0 = GOMAXPROCS), and trial seeds depend only on (seed, index), so the
// worker count changes the wall clock, never a result. Orthogonally,
// uniform-Bernoulli phases draw through radio.TxSet's cross-round stream
// contract: the rounds of one phase form a single Bernoulli stream whose
// geometric overshoot carries across round boundaries, so a fully silent
// round consumes no randomness and every round's randomness is fixed by
// the stream alone. The engine executes every round; only an energy-free
// baseline.FixedProb run still skips silent spans in O(1)
// (radio.UniformRound), until the next change to the benchmark (ROADMAP
// item 10). Every engine configuration (radio.SetEngineOverrides) is
// pinned bit-identical on informed trajectory, per-node transmissions,
// rounds and energy; gossip has one decision path and reads no override.
// See README.md ("The sparse round engine").
//
// The reception rule itself is pluggable: radio.Options.Reception takes a
// radio.ReceptionModel — Binary (the paper's rule and the default, which
// resolves to the exact pre-existing hot paths), Fade (per-receiver deep
// fade), LossyChannel (per-link erasure), SINRThreshold (capture: up to K
// simultaneous transmitters decode), and Jam (stationary random jamming).
// Channel randomness is hashed per (seed, round, receiver[, transmitter]),
// not streamed, so every kernel iteration order produces bit-identical
// results, silent rounds consume no channel randomness, and resumed
// sessions reproduce uninterrupted ones. Listener duty cycles compose
// from the energy side: energy.DutyCycle schedules uninformed listeners
// into on/off windows (sleeping listeners cannot receive and pay the
// sleep rate), with closed-form span accounting that keeps the lazy
// per-node folds and death prediction exact. The C1–C5 battery in internal/expt measures the
// consequences, with the channel exposed as a shardable campaign axis
// (campaign.Config.Channel, cmd/experiments -channel). See README.md
// ("Channel models & duty cycles").
//
// The engine also runs on implicit topologies: graph.Implicit is the
// generate-free graph interface (deterministic per-(seed,node) row
// enumeration, strictly increasing and bit-stable), with two backends —
// implicit G(n,p) whose rows are geometric-skip RNG streams (O(1)
// construction, O(n) run footprint; it serves out-rows only, so every run
// on it is push-only) and implicit RGG/UDG re-deriving neighbourhoods from
// a coordinates-only cell grid (graph.ImplicitGeom, which also serves
// in-rows through graph.InRows, so the engine may pull on it). Both are pinned
// edge-identical to their materialized twins and bit-identical through
// the engine under every forcing; the S1 experiment carries the
// representation axis (Config.GraphMode, cmd/experiments -implicit), the
// 10^8-node trajectory point is BenchmarkPrimitiveAlgorithm1Run100M, and
// scripts/mem_gate.sh pins the O(n) heap ceiling. See README.md
// ("Implicit topologies").
package repro
