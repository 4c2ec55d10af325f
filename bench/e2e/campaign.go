package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/expt"
	"repro/internal/radio"
	"repro/internal/sweep"
)

// defaultSeed is the seed whose campaign-reduced record digest is
// committed below.
const defaultSeed = 2009

// campaignDigest2009 is the digest of the workload's records at seed 2009
// (see recordsDigest). A change that alters any experiment's output changes
// it; update it only with such a change.
const campaignDigest2009 = "6a7e205bf9a9fb385526650c88a63ef4328a96a29b68f0ca85718375d7d4b031"

// leftOut are the registered experiments campaign-reduced does not run.
// Each has one point far longer than the rest: S1's implicit RGG and N2 at
// q=0.4 took 3.1 and 2.3 s of a 12 s pass, and 15-19% more or less from one
// pass to the next, because the host's speed swings during them and the
// reference kernel runs only between points. The two alone made half the
// pass-to-pass spread of the throughput. Without them a pass has 189 points
// and lasts about 6 s at reference speed, and the points a user waits on
// for an -all run are the many small ones this workload is about.
var leftOut = []string{"S1", "N2"}

// campaignReduced runs the reduced grid of every registered experiment but
// those leftOut through campaign.Run into a fresh checkpoint and renders
// every table to markdown, as `experiments -all` does. One unit is one pass
// over the grid; one op is one grid point.
//
// Set-up is what `experiments -all` does before its first point under its
// default -parallelism auto: a fresh process starts and runs the calibration
// probe, and the grid is expanded. The probe runs once per process, so each
// set-up starts a new process of this binary for it (see calibrateEnv). The
// passes then pin -parallelism off, the serial plan auto picks when the
// probe measures one effective core, as it does on the 2-vCPU VMs the
// benchmark was built on. The probe there reads 1.0 when the second vCPU is
// parked and about 1.9 when it is awake, so auto itself would pick one or
// two trial workers at random and the pass time would swing by half. Serial
// points also feel the host's load as the single-threaded reference kernel
// does; with two trial workers the scaled throughput over-corrected by up to
// 20% on a loaded host.
type campaignReduced struct {
	cfg  expt.Config
	exps []expt.Experiment
	full bool // exps is the benchmark's own list, whose digest is committed
	dir  string
	keys [][]string // point keys per experiment, from set-up
	pass int        // passes run so far, for unique checkpoint paths

	// State the wrapped Points/Run/Render fields use during a phase.
	tr       *tracer
	host     *hostProbe
	parent   int
	opMs     []float64
	opAt     []time.Time
	opFamily []string
}

// newCampaignReduced builds the workload over exps (nil: every registered
// experiment but those leftOut).
func newCampaignReduced(seed uint64, dir string, exps []expt.Experiment) *campaignReduced {
	full := exps == nil
	if full {
		for _, e := range expt.All() {
			if !slices.Contains(leftOut, e.ID) {
				exps = append(exps, e)
			}
		}
	}
	return &campaignReduced{cfg: expt.Config{Seed: seed, Parallelism: "off"}, exps: exps, full: full, dir: dir}
}

// calibrateEnv, set to 1 in its environment, makes this program run the
// calibration probe and exit.
const calibrateEnv = "E2E_CALIBRATE"

func init() {
	if os.Getenv(calibrateEnv) == "1" {
		radio.Calibrate()
		os.Exit(0)
	}
}

// minPasses is the least number of passes a phase runs, however short
// --seconds is. The passes of one run differ about as much as those of
// different runs, by 3.4% of a pass's time, so the mean of k passes narrows
// the spread between runs about √k-fold.
const minPasses = 4

func (c *campaignReduced) setupReps() int { return 9 }

func (c *campaignReduced) setup() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	probe := exec.Command(exe)
	probe.Env = append(os.Environ(), calibrateEnv+"=1")
	if out, err := probe.CombinedOutput(); err != nil {
		return fmt.Errorf("calibration probe: %v: %s", err, out)
	}
	c.keys = make([][]string, len(c.exps))
	for i, e := range c.exps {
		for _, pt := range e.Campaign.Points(c.cfg) {
			c.keys[i] = append(c.keys[i], pt.Key)
		}
	}
	return nil
}

func (c *campaignReduced) teardown() {}

func (c *campaignReduced) points() int {
	n := 0
	for _, ks := range c.keys {
		n += len(ks)
	}
	return n
}

// units wraps every experiment's Points, Run and Render fields with spans;
// the Run wrapper also times each point, traced or not, and ticks the host
// probe before it.
func (c *campaignReduced) units() []campaign.Unit {
	us := make([]campaign.Unit, len(c.exps))
	for i, e := range c.exps {
		inner, family := e.Campaign, e.ID[:1]
		wrapped := inner
		wrapped.Points = func(cfg campaign.Config) []campaign.Point {
			s := c.tr.begin("campaign.points", c.parent, noOp)
			defer c.tr.end(s)
			return inner.Points(cfg)
		}
		wrapped.Run = func(cfg campaign.Config, pt campaign.Point, seed uint64) campaign.Samples {
			c.host.tick(c.tr, c.parent)
			s := c.tr.begin("campaign.point", c.parent, int64(len(c.opMs)))
			t := time.Now()
			out := inner.Run(cfg, pt, seed)
			c.opMs = append(c.opMs, ms(time.Since(t)))
			c.opAt = append(c.opAt, t)
			c.tr.end(s)
			c.opFamily = append(c.opFamily, family)
			return out
		}
		wrapped.Render = func(cfg campaign.Config, v campaign.View) []*sweep.Table {
			s := c.tr.begin("campaign.tables", c.parent, noOp)
			defer c.tr.end(s)
			return inner.Render(cfg, v)
		}
		us[i] = campaign.Unit{ID: e.ID, C: wrapped}
	}
	return us
}

func (c *campaignReduced) phase(tr *tracer, host *hostProbe, more moreFunc) (*phaseResult, error) {
	res := &phaseResult{root: tr.begin("phase", noSpan, noOp)}
	c.tr, c.host, c.opMs, c.opAt, c.opFamily = tr, host, nil, nil, nil
	units := c.units()
	var last *campaign.ResultSet
	var recordsBytes int64
	start := time.Now()
	for res.units < minPasses || more(res.units, len(c.opMs), time.Since(start)) {
		res.units++
		c.pass++
		t, kernel := time.Now(), host.kernelTime()
		pass := tr.begin("pass", res.root, noOp)
		dir := filepath.Join(c.dir, fmt.Sprintf("pass-%d", c.pass))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		ckpt := filepath.Join(dir, "records.jsonl")
		run := tr.begin("campaign.run", pass, noOp)
		c.parent = run
		rs, err := campaign.Run(units, campaign.RunOptions{Config: c.cfg, Checkpoint: ckpt, Trials: expt.Trials(c.cfg)})
		tr.end(run)
		if err != nil {
			return nil, err
		}
		res.attempted += c.points()
		if c.complete(rs, res) {
			render := tr.begin("campaign.render", pass, noOp)
			c.parent = render
			md := c.render(units, rs, res)
			tr.end(render)
			if md == "" {
				res.fail("pass %d rendered no markdown", c.pass)
			}
		}
		tr.end(pass)
		// The pass's time is the campaign's own, without the kernel runs.
		res.elapsed += time.Since(t) - (host.kernelTime() - kernel)

		digest := recordsDigest(rs)
		switch {
		case res.digest == "":
			res.digest = digest
		case digest != res.digest:
			res.fail("pass %d records differ from pass 1", c.pass)
		}
		if st, err := os.Stat(ckpt); err == nil {
			recordsBytes = st.Size()
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		last = rs
	}
	tr.end(res.root)
	res.opMs, res.opAt = c.opMs, c.opAt
	if c.cfg.Seed == defaultSeed && c.full && res.digest != campaignDigest2009 {
		res.fail("records digest %s differs from the committed seed-%d digest %s", res.digest, defaultSeed, campaignDigest2009)
	}
	if tr == nil {
		return res, nil
	}

	st := newSpanTable(tr.snapshot())
	res.layer = values{
		"campaign.run_s":         st.totalS("campaign.run"),
		"campaign.points_s":      st.totalS("campaign.points"),
		"campaign.engine_self_s": st.selfS("campaign.run"),
		"campaign.render_s":      st.totalS("campaign.render"),
		"campaign.records_bytes": float64(recordsBytes),
	}
	for _, f := range families {
		res.layer["campaign.point_s."+f] = 0
	}
	for _, s := range st.named("campaign.point") {
		res.layer["campaign.point_s."+c.opFamily[s.Op]] += float64(s.End-s.Start) / 1e9
	}
	appendMs, err := replaySink(last, filepath.Join(c.dir, "replay.jsonl"))
	if err != nil {
		return nil, err
	}
	res.layer["campaign.sink_append_ms_p50"] = percentile(appendMs, 0.5)
	res.layer["campaign.sink_append_ms_p90"] = percentile(appendMs, 0.9)
	return res, nil
}

// complete counts every grid point without a record as a failed op and
// reports whether the pass can be rendered.
func (c *campaignReduced) complete(rs *campaign.ResultSet, res *phaseResult) bool {
	ok := true
	for i, e := range c.exps {
		for _, k := range c.keys[i] {
			if _, found := rs.Lookup(e.ID, k); !found {
				res.fail("%s point %s has no record", e.ID, k)
				ok = false
			}
		}
	}
	return ok
}

// render builds every experiment's tables and formats them as markdown.
func (c *campaignReduced) render(units []campaign.Unit, rs *campaign.ResultSet, res *phaseResult) string {
	var b strings.Builder
	for _, u := range units {
		tables := u.C.Render(c.cfg, campaign.NewView(rs, u.ID))
		if len(tables) == 0 {
			res.fail("%s rendered no table", u.ID)
		}
		for _, t := range tables {
			b.WriteString(t.Markdown())
		}
	}
	return b.String()
}

// replaySink appends the records through a fresh checkpoint sink and times
// every append.
func replaySink(rs *campaign.ResultSet, path string) ([]float64, error) {
	if rs == nil {
		return nil, nil
	}
	sink, err := campaign.OpenSink(path, true)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	var out []float64
	for _, r := range rs.Records() {
		t := time.Now()
		if err := sink.Append(r); err != nil {
			sink.Close()
			return nil, err
		}
		out = append(out, ms(time.Since(t)))
	}
	return out, sink.Close()
}

// recordsDigest hashes the records in grid order. X4's "nanos" samples are
// left out: they are wall-clock measurements, the only samples in the
// registry that differ between two runs of the same seed.
func recordsDigest(rs *campaign.ResultSet) string {
	h := sha256.New()
	for _, r := range rs.Records() {
		rec := *r
		if rec.Campaign == "X4" {
			rec.Samples = map[string][]campaign.NullFloat{}
			for k, v := range r.Samples {
				if k != "nanos" {
					rec.Samples[k] = v
				}
			}
		}
		line, err := json.Marshal(&rec)
		if err != nil {
			panic(err) // records hold only strings and NullFloats
		}
		h.Write(line)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
