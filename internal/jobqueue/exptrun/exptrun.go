// Package exptrun adapts the expt experiment registry to the jobqueue
// service: Expand turns a submitted JobSpec into its grid points (the
// daemon side), and Runner executes one leased point (the worker side).
//
// Both sides re-derive the grid independently from the registry compiled
// into their own binary, so only (campaign ID, point key, spec) crosses
// the wire — the typed point payloads (protocol constructors, topology
// specs) never need to serialise. The worker's record is bit-identical to
// what an in-process campaign.Run would have streamed for the same point,
// because both call the same Campaign.Run with the same seed: the spec's
// base seed, which every point receives.
package exptrun

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/campaign"
	"repro/internal/expt"
	"repro/internal/jobqueue"
)

// config maps the wire spec onto the engine config. GraphMode and Channel
// ride along so daemon-side Expand and worker-side RunPoint enumerate the
// same grid.
func config(spec jobqueue.JobSpec) campaign.Config {
	return campaign.Config{Full: spec.Full, Seed: spec.Seed, Workers: spec.Workers,
		GraphMode: spec.GraphMode, Channel: spec.Channel}
}

// select resolves the spec's experiment list against the registry:
// explicit IDs, or the single element "all". Unknown IDs error with the
// valid set; duplicates error rather than silently collapsing.
func selectExperiments(spec jobqueue.JobSpec) ([]expt.Experiment, error) {
	if len(spec.Experiments) == 0 {
		return nil, fmt.Errorf("exptrun: spec selects no experiments (use [\"all\"] or explicit IDs)")
	}
	if len(spec.Experiments) == 1 && spec.Experiments[0] == "all" {
		return expt.All(), nil
	}
	var out []expt.Experiment
	seen := map[string]bool{}
	for _, id := range spec.Experiments {
		id = strings.TrimSpace(id)
		if seen[id] {
			return nil, fmt.Errorf("exptrun: experiment %q listed twice", id)
		}
		seen[id] = true
		e, ok := expt.ByID(id)
		if !ok {
			return nil, fmt.Errorf("exptrun: unknown experiment %q (valid: %s, or \"all\")", id, validIDs())
		}
		out = append(out, e)
	}
	return out, nil
}

func validIDs() string {
	var ids []string
	for _, e := range expt.All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return strings.Join(ids, " ")
}

// Expand is the jobqueue.Expander over the expt registry: it enumerates
// every selected experiment's grid for the spec's scale and returns the
// per-point trial count stamped into records.
func Expand(spec jobqueue.JobSpec) ([]jobqueue.PointRef, int, error) {
	es, err := selectExperiments(spec)
	if err != nil {
		return nil, 0, err
	}
	cfg := config(spec)
	var points []jobqueue.PointRef
	for _, e := range es {
		for _, pt := range e.Campaign.Points(cfg) {
			if pt.Key == "" {
				return nil, 0, fmt.Errorf("exptrun: experiment %s has a point with an empty key", e.ID)
			}
			points = append(points, jobqueue.PointRef{Campaign: e.ID, Key: pt.Key})
		}
	}
	return points, expt.Trials(cfg), nil
}

// Runner executes leased points against the registry.
type Runner struct{}

// RunPoint finds the leased point in the worker's own enumeration of the
// experiment grid and runs it, packaging the samples exactly as the
// in-process engine would. An unknown experiment or point key means the
// worker and daemon binaries disagree on the registry (version skew) —
// reported as a failure so the point retries elsewhere and, if no worker
// can run it, lands in the manifest instead of wedging the campaign.
func (Runner) RunPoint(l *jobqueue.Lease) (*campaign.Record, error) {
	e, ok := expt.ByID(l.Point.Campaign)
	if !ok {
		return nil, fmt.Errorf("exptrun: unknown experiment %q (worker/daemon version skew?)", l.Point.Campaign)
	}
	cfg := config(l.Spec)
	var pt *campaign.Point
	for _, p := range e.Campaign.Points(cfg) {
		if p.Key == l.Point.Key {
			pt = &p
			break
		}
	}
	if pt == nil {
		return nil, fmt.Errorf("exptrun: experiment %s has no point %q at this scale (worker/daemon version skew?)", e.ID, l.Point.Key)
	}
	samples := e.Campaign.Run(cfg, *pt, cfg.Seed)
	return campaign.NewRecord(e.ID, *pt, cfg, l.Trials, samples), nil
}
