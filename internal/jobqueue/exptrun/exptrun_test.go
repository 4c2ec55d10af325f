package exptrun

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/expt"
	"repro/internal/jobqueue"
)

func TestExpandAllCoversRegistry(t *testing.T) {
	pts, trials, err := Expand(jobqueue.JobSpec{Experiments: []string{"all"}, Seed: 1})
	if err != nil {
		t.Fatalf("Expand(all): %v", err)
	}
	if trials != expt.Trials(campaign.Config{}) {
		t.Fatalf("trials = %d, want the reduced-scale registry count %d", trials, expt.Trials(campaign.Config{}))
	}
	seen := map[string]bool{}
	for _, p := range pts {
		seen[p.Campaign] = true
	}
	for _, e := range expt.All() {
		if !seen[e.ID] {
			t.Errorf("Expand(all) has no points for experiment %s", e.ID)
		}
	}
	if len(pts) < len(expt.All()) {
		t.Fatalf("%d points for %d experiments", len(pts), len(expt.All()))
	}
}

func TestExpandSelectionErrors(t *testing.T) {
	cases := []struct {
		name string
		spec jobqueue.JobSpec
		want string
	}{
		{"empty", jobqueue.JobSpec{}, "selects no experiments"},
		{"unknown", jobqueue.JobSpec{Experiments: []string{"ZZ99"}}, "unknown experiment"},
		{"duplicate", jobqueue.JobSpec{Experiments: []string{"F1", "F1"}}, "listed twice"},
		{"unknown channel", jobqueue.JobSpec{Experiments: []string{"C5"}, Channel: "fading"}, "unknown channel"},
		{"unknown graph mode", jobqueue.JobSpec{Experiments: []string{"S1"}, Full: true, GraphMode: "csv"}, "unknown graph mode"},
	}
	for _, tc := range cases {
		_, _, err := Expand(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	// The unknown-ID message names the valid set so a typo is self-serviceable.
	_, _, err := Expand(jobqueue.JobSpec{Experiments: []string{"ZZ99"}})
	if err == nil || !strings.Contains(err.Error(), "F1") {
		t.Errorf("unknown-ID error does not list valid IDs: %v", err)
	}
}

func TestRunPointUnknownLeaseIsVersionSkew(t *testing.T) {
	var r Runner
	if _, err := r.RunPoint(&jobqueue.Lease{Point: jobqueue.PointRef{Campaign: "ZZ99", Key: "p"}}); err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Errorf("unknown experiment: %v", err)
	}
	if _, err := r.RunPoint(&jobqueue.Lease{Point: jobqueue.PointRef{Campaign: "F1", Key: "no-such-point"}}); err == nil || !strings.Contains(err.Error(), "version skew") {
		t.Errorf("unknown point: %v", err)
	}
}

// TestRunPointMatchesSingleProcessRun is the determinism contract the whole
// daemon rests on: for every F1 point, the record a leased worker computes
// must be byte-identical to the line the in-process engine streams into a
// checkpoint during an unsharded run. (F1 is analytic, so this is cheap.)
func TestRunPointMatchesSingleProcessRun(t *testing.T) {
	spec := jobqueue.JobSpec{ID: "eq", Experiments: []string{"F1"}, Seed: 321}
	pts, trials, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Truth: the PR 4 engine writing its own checkpoint.
	e, _ := expt.ByID("F1")
	ck := filepath.Join(t.TempDir(), "truth.jsonl")
	cfg := campaign.Config{Seed: spec.Seed}
	if _, err := campaign.Run([]campaign.Unit{{ID: e.ID, C: e.Campaign}}, campaign.RunOptions{
		Config: cfg, Trials: trials, Checkpoint: ck,
	}); err != nil {
		t.Fatalf("in-process run: %v", err)
	}
	truth := map[string]string{}
	data, err := os.ReadFile(ck)
	if err != nil {
		t.Fatal(err)
	}
	for _, ln := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec campaign.Record
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("truth checkpoint line corrupt: %v", err)
		}
		truth[rec.Campaign+"/"+rec.Point] = ln
	}

	// Distributed path: one RunPoint per lease, marshalled as the daemon
	// sink would write it.
	var r Runner
	for _, pt := range pts {
		rec, err := r.RunPoint(&jobqueue.Lease{Job: "eq", Point: pt, Spec: spec, Trials: trials})
		if err != nil {
			t.Fatalf("RunPoint(%s/%s): %v", pt.Campaign, pt.Key, err)
		}
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		want, ok := truth[pt.Campaign+"/"+pt.Key]
		if !ok {
			t.Fatalf("truth checkpoint missing %s/%s", pt.Campaign, pt.Key)
		}
		if string(line) != want {
			t.Errorf("record for %s/%s differs from single-process run:\n got %s\nwant %s", pt.Campaign, pt.Key, line, want)
		}
	}
	if len(truth) != len(pts) {
		t.Fatalf("truth has %d records for %d expanded points", len(truth), len(pts))
	}
}

// FuzzExpand drives the spec→grid path with arbitrary experiment lists
// (comma-separated), scales, graph modes and channels. Expand must never
// panic; it returns an error or a non-empty point list whose (campaign,
// key) pairs are non-empty and unique; and a graph mode or channel outside
// the documented values is always an error.
func FuzzExpand(f *testing.F) {
	f.Add("all", false, "", "")
	f.Add("all", true, "", "")
	for _, ch := range []string{"", "binary", "fade", "duty", "fading"} {
		f.Add("C5", false, "", ch)
	}
	for _, mode := range []string{"implicit", "csr", "csv"} {
		f.Add("S1", true, mode, "")
	}
	f.Add("", false, "", "")
	f.Add("E1,E1", false, "", "")
	f.Add("ZZ99", false, "", "")
	f.Add(" E1", false, "", "")
	f.Fuzz(func(t *testing.T, experiments string, full bool, graphMode, channel string) {
		spec := jobqueue.JobSpec{Full: full, GraphMode: graphMode, Channel: channel}
		if experiments != "" {
			spec.Experiments = strings.Split(experiments, ",")
		}
		pts, _, err := Expand(spec)
		legal := slices.Contains([]string{"", "csr", "implicit"}, graphMode) &&
			slices.Contains([]string{"", "binary", "fade", "duty"}, channel)
		if !legal && err == nil {
			t.Fatalf("graph mode %q, channel %q: Expand accepted the spec", graphMode, channel)
		}
		if err != nil {
			return
		}
		if len(pts) == 0 {
			t.Fatalf("%+v: no error and no points", spec)
		}
		seen := make(map[jobqueue.PointRef]bool, len(pts))
		for _, p := range pts {
			if p.Campaign == "" || p.Key == "" {
				t.Fatalf("%+v: empty campaign or key in %+v", spec, p)
			}
			if seen[p] {
				t.Fatalf("%+v: point %s/%s listed twice", spec, p.Campaign, p.Key)
			}
			seen[p] = true
		}
	})
}
