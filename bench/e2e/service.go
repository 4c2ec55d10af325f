package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/expt"
	"repro/internal/jobqueue"
	"repro/internal/jobqueue/exptrun"
)

// serviceExperiments is the cheap 108-point subset every service-drain job
// runs: its points take milliseconds, so leasing, completion, fsync and
// HTTP are a visible share of the drain.
var serviceExperiments = []string{"F1", "F2", "E6", "E8", "E9", "E10", "E11", "X3", "X6",
	"C2", "C4", "C5", "G2", "G5", "N5", "X7", "G1", "E7"}

const (
	serviceWorkers = 2
	workerPoll     = 5 * time.Millisecond
	statusEvery    = 100 * time.Millisecond
	sweepEvery     = time.Second // campaignd's default
	// drainLimit stops a phase whose jobs never complete, well inside the
	// three minutes a run may take.
	drainLimit = 150 * time.Second
	// spanHeader carries the client RPC span's ID to the server, so each
	// server span is the child of the call that caused it.
	spanHeader = "X-E2e-Span"
)

// serviceDrain drains jobs through an in-process durable campaignd: a
// jobqueue.Queue with its state directory set (campaignd's default) behind
// httptest, with its sweeper, two RunWorker loops and a status poller. Set-up
// starts the daemon and submits every job; the phase drains them. One unit
// is one job; one op is one grid point, from lease grant to the acknowledged
// completion.
type serviceDrain struct {
	seed    uint64
	exps    []string
	jobs    int
	dir     string
	perJob  int
	daemons int // started so far, for unique directories
	d       *daemon
}

func newServiceDrain(seed uint64, dir string, exps []string, jobs int) *serviceDrain {
	return &serviceDrain{seed: seed, exps: exps, jobs: jobs, dir: dir}
}

// serviceJobs is the job count for a phase of at least about the given
// length: on a quiet 2-vCPU host the two workers drain about 1.85 jobs a
// second, and a busy host drains fewer.
func serviceJobs(seconds float64) int { return max(2, int(math.Round(2*seconds))) }

func jobID(j int) string { return fmt.Sprintf("job-%03d", j) }

func (s *serviceDrain) spec(j int) jobqueue.JobSpec {
	return jobqueue.JobSpec{ID: jobID(j), Experiments: s.exps, Seed: s.seed + uint64(j), Workers: 1}
}

// daemon is one running in-process campaignd.
type daemon struct {
	dir      string
	q        *jobqueue.Queue
	ts       *httptest.Server
	h        *handlerProbe
	stop     chan struct{}
	done     chan struct{}
	ctl      *rpcProbe        // transport of the poller's client
	c        *jobqueue.Client // the poller's client
	submitMs []float64        // client-side latency of each submission
}

// setupReps is high because one set-up takes about 15 ms, most of it
// fsyncs, whose latency jumps now and then.
func (s *serviceDrain) setupReps() int { return 15 }

func (s *serviceDrain) setup() error {
	s.daemons++
	dir := filepath.Join(s.dir, fmt.Sprintf("daemon-%d", s.daemons))
	q, err := jobqueue.NewQueue(jobqueue.Options{DataDir: dir, StateDir: dir, Expand: exptrun.Expand})
	if err != nil {
		return err
	}
	srv := jobqueue.NewServer(q)
	d := &daemon{dir: dir, q: q, h: &handlerProbe{next: srv}, stop: make(chan struct{}), done: make(chan struct{})}
	d.ts = httptest.NewServer(d.h)
	go func() {
		defer close(d.done)
		srv.RunSweeper(sweepEvery, d.stop)
	}()
	d.ctl = newRPCProbe(nil, noSpan, nil)
	d.c = jobqueue.NewClient(d.ts.URL)
	d.c.HTTP.Transport = d.ctl
	s.d = d
	if s.perJob == 0 {
		pts, _, err := exptrun.Expand(s.spec(0))
		if err != nil {
			return err
		}
		s.perJob = len(pts)
	}
	for j := 0; j < s.jobs; j++ {
		t := time.Now()
		if _, err := d.c.Submit(context.Background(), s.spec(j)); err != nil {
			return fmt.Errorf("submit %s: %w", jobID(j), err)
		}
		d.submitMs = append(d.submitMs, ms(time.Since(t)))
	}
	return nil
}

func (s *serviceDrain) teardown() {
	d := s.d
	if d == nil {
		return
	}
	s.d = nil
	close(d.stop)
	<-d.done
	d.ts.Close()
	d.ctl.next.CloseIdleConnections()
	d.q.Close() //nolint:errcheck // the directory is deleted next
	os.RemoveAll(d.dir)
}

// phase drains the jobs set-up submitted; their count, not more, fixes its
// length.
func (s *serviceDrain) phase(tr *tracer, host *hostProbe, _ moreFunc) (*phaseResult, error) {
	d := s.d
	res := &phaseResult{root: tr.begin("phase", noSpan, noOp)}
	d.h.tr.Store(tr)
	ops := &opLog{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The reference kernel runs on a goroutine of its own, at once and then
	// every refEvery, with the gate shut, so that no point runs beside it.
	// Beside the workers it would share the two vCPUs with the program under
	// test, whose own load would then move the scale. The workers' waits at
	// the gate are taken out of the op latencies and the phase's time.
	gate := &pointGate{}
	stopHost, hostDone := make(chan struct{}), make(chan struct{})
	start := time.Now()
	go func() {
		defer close(hostDone)
		every := time.NewTicker(refEvery)
		defer every.Stop()
		for {
			gate.shut(func() { host.kernel(tr, res.root) })
			host.sampleRSS()
			select {
			case <-stopHost:
				return
			case <-every.C:
			}
		}
	}()
	var wg sync.WaitGroup
	var workers []*rpcProbe
	for k := 0; k < serviceWorkers; k++ {
		span := tr.begin("worker", res.root, noOp)
		p := newRPCProbe(tr, span, ops)
		workers = append(workers, p)
		c := jobqueue.NewClient(d.ts.URL)
		c.HTTP.Transport = p
		run := &runnerProbe{p: p, gate: gate, tr: tr, parent: span}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer tr.end(span)
			defer p.next.CloseIdleConnections()
			// RunWorker returns nil once ctx is cancelled; it errs only on
			// options, which are fixed here.
			jobqueue.RunWorker(ctx, c, run, jobqueue.WorkerOptions{ID: fmt.Sprintf("worker-%d", k), Poll: workerPoll}) //nolint:errcheck
		}()
	}

	// The poller sends GET /campaigns/{id} for the oldest incomplete job on
	// a fixed schedule, and for the next job at once when that one is
	// complete. Each poll is timed from when it was due, so a stalled daemon
	// shows in the latency of the polls queued behind the stall.
	poller := tr.begin("poller", res.root, noOp)
	d.ctl.tr, d.ctl.parent = tr, poller
	var statusMs []float64
	completed := 0
	next := start
	var err error
	for completed < s.jobs && err == nil {
		if time.Since(start) > drainLimit {
			err = fmt.Errorf("%d of %d jobs still incomplete after %v", s.jobs-completed, s.jobs, drainLimit)
			break
		}
		next = next.Add(statusEvery)
		time.Sleep(time.Until(next))
		for due := next; completed < s.jobs; due = time.Now() {
			st, serr := d.c.Status(ctx, jobID(completed))
			statusMs = append(statusMs, ms(time.Since(due)))
			if serr != nil {
				err = fmt.Errorf("status of %s: %w", jobID(completed), serr)
				break
			}
			if st.State != "complete" {
				break
			}
			completed++
		}
	}
	tr.end(poller)
	close(stopHost)
	<-hostDone
	cancel()
	wg.Wait()
	tr.end(res.root)
	d.h.tr.Store(nil)
	d.ctl.tr, d.ctl.parent = nil, noSpan
	if err != nil {
		return nil, err
	}
	res.units = s.jobs
	res.attempted = s.jobs * s.perJob
	res.opMs, res.opAt, res.elapsed = ops.result(start)
	// Each worker lost the time it waited at the gate.
	res.elapsed -= gate.waited() / serviceWorkers

	stats, err := s.check(tr == nil, res)
	if err != nil {
		return nil, err
	}
	if tr == nil {
		return res, nil
	}

	st := newSpanTable(tr.snapshot())
	res.layer = stats
	for _, name := range []string{"lease", "complete", "heartbeat", "status"} {
		xs := st.durationsMs("rpc." + name)
		res.layer["rpc."+name+"_ms_p50"] = percentile(xs, 0.5)
		res.layer["rpc."+name+"_ms_p90"] = percentile(xs, 0.9)
	}
	// Submissions happen in set-up, before the tracer starts.
	res.layer["rpc.submit_ms_p50"] = percentile(d.submitMs, 0.5)
	res.layer["rpc.submit_ms_p90"] = percentile(d.submitMs, 0.9)
	for _, name := range []string{"lease", "complete", "status"} {
		xs := st.durationsMs("server." + name)
		res.layer["server."+name+"_ms_p50"] = percentile(xs, 0.5)
		res.layer["server."+name+"_ms_p90"] = percentile(xs, 0.9)
	}
	var transport []float64
	for _, sv := range st.named("server.complete") {
		if sv.Parent != noSpan {
			cl := st.spans[sv.Parent]
			transport = append(transport, float64((cl.End-cl.Start)-(sv.End-sv.Start))/1e6)
		}
	}
	res.layer["rpc.transport_ms_p50"] = percentile(transport, 0.5)
	rpcErrors := d.ctl.errorCount()
	for _, p := range workers {
		rpcErrors += p.errorCount()
	}
	res.layer["rpc.errors"] = float64(rpcErrors)
	// The worker loop's own RPCs; heartbeats run beside it.
	var loopRPC int64
	for _, sp := range st.spans {
		if strings.HasPrefix(sp.Name, "rpc.") && sp.Name != "rpc.heartbeat" &&
			sp.Parent != noSpan && st.spans[sp.Parent].Name == "worker" {
			loopRPC += sp.End - sp.Start
		}
	}
	busy := st.totalS("worker.run_point")
	res.layer["worker.run_point_ms_p50"] = percentile(st.durationsMs("worker.run_point"), 0.5)
	res.layer["worker.busy_s"] = busy
	res.layer["worker.idle_s"] = serviceWorkers*res.elapsed.Seconds() - busy - float64(loopRPC)/1e9
	res.layer["status_ms_p50"] = percentile(statusMs, 0.5)
	res.layer["status_ms_p90"] = percentile(statusMs, 0.9)
	return res, nil
}

// check runs after the timed phase. Every job must hold a record for every
// point and an empty failure manifest; the records of all jobs form the
// phase digest; with inProcess, job 0's records must equal an in-process
// campaign.Run of the same subset and seed. It returns the queue and
// durability counters.
func (s *serviceDrain) check(inProcess bool, res *phaseResult) (values, error) {
	d := s.d
	c := jobqueue.NewClient(d.ts.URL)
	ctx := context.Background()
	v := values{"queue.requeues": 0, "queue.retries": 0, "queue.duplicates": 0}
	h := sha256.New()
	for j := 0; j < s.jobs; j++ {
		id := jobID(j)
		st, err := c.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		v["queue.requeues"] += float64(st.Requeues)
		v["queue.retries"] += float64(st.Retries)
		v["queue.duplicates"] += float64(st.Duplicates)
		m, err := c.ManifestOf(ctx, id)
		if err != nil {
			return nil, err
		}
		for _, f := range m.Failures {
			res.fail("%s: point %s/%s in the failure manifest: %s", id, f.Point.Campaign, f.Point.Key, f.LastErr)
		}
		var buf bytes.Buffer
		if err := c.Records(ctx, id, &buf); err != nil {
			return nil, err
		}
		lines, err := recordLines(buf.Bytes())
		if err != nil {
			return nil, fmt.Errorf("%s records: %w", id, err)
		}
		for k := len(lines); k < s.perJob-len(m.Failures); k++ {
			res.fail("%s: a point has no record", id)
		}
		keys := make([]string, 0, len(lines))
		for k := range lines {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "%s %s\n", id, lines[k])
		}
		if j == 0 && inProcess {
			want, err := s.inProcess(s.spec(0))
			if err != nil {
				return nil, err
			}
			for k, w := range want {
				if lines[k] != w {
					res.fail("%s: record %s differs from an in-process campaign.Run", id, k)
				}
			}
		}
	}
	res.digest = hex.EncodeToString(h.Sum(nil))
	v["durability.state_bytes"] = float64(fileSize(filepath.Join(d.dir, "wal.jsonl")) + fileSize(filepath.Join(d.dir, "snapshot.json")))
	for j := 0; j < s.jobs; j++ {
		v["durability.checkpoint_bytes"] += float64(fileSize(filepath.Join(d.dir, jobID(j), "records.jsonl")) +
			fileSize(filepath.Join(d.dir, jobID(j), "manifest.json")))
	}
	return v, nil
}

// inProcess runs the job's experiments through campaign.Run in this
// process and returns its records by campaign/point.
func (s *serviceDrain) inProcess(spec jobqueue.JobSpec) (map[string]string, error) {
	var es []expt.Experiment
	for _, id := range spec.Experiments {
		e, ok := expt.ByID(id)
		if !ok {
			return nil, fmt.Errorf("unknown experiment %s", id)
		}
		es = append(es, e)
	}
	// Parallelism "off" keeps campaign.Run from installing the calibration
	// probe's core count, which the workers' point planning reads; records
	// do not depend on it.
	cfg := expt.Config{Seed: spec.Seed, Workers: spec.Workers, Parallelism: "off"}
	rs, err := campaign.Run(expt.Units(es), campaign.RunOptions{Config: cfg, Trials: expt.Trials(cfg)})
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for _, r := range rs.Records() {
		line, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		out[r.Campaign+"/"+r.Point] = string(line)
	}
	return out, nil
}

// recordLines splits a JSONL record stream by campaign/point.
func recordLines(data []byte) (map[string]string, error) {
	out := map[string]string{}
	for _, ln := range strings.Split(string(data), "\n") {
		if strings.TrimSpace(ln) == "" {
			continue
		}
		var r campaign.Record
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			return nil, err
		}
		key := r.Campaign + "/" + r.Point
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("record %s appears twice", key)
		}
		out[key] = ln
	}
	return out, nil
}

func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// opLog collects op latencies from both workers.
type opLog struct {
	mu      sync.Mutex
	ms      []float64
	at      []time.Time // lease grant of each op
	lastAck time.Time
}

// add logs an op from its lease grant to its acknowledged completion, less
// the time its worker waited at the gate.
func (o *opLog) add(grant, ack time.Time, waited time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ms = append(o.ms, ms(ack.Sub(grant)-waited))
	o.at = append(o.at, grant)
	o.lastAck = ack
}

// result returns the latencies, their start times and the time from start
// to the last acknowledged completion.
func (o *opLog) result(start time.Time) ([]float64, []time.Time, time.Duration) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ms, o.at, o.lastAck.Sub(start)
}

// rpcName maps a campaignd API path to its call name.
func rpcName(method, path string) string {
	switch {
	case path == "/api/v1/lease":
		return "lease"
	case path == "/api/v1/complete":
		return "complete"
	case path == "/api/v1/fail":
		return "fail"
	case path == "/api/v1/workers/heartbeat":
		return "heartbeat"
	case path == "/api/v1/workers/register":
		return "register"
	case path == "/api/v1/campaigns" && method == http.MethodPost:
		return "submit"
	case strings.HasSuffix(path, "/records"):
		return "records"
	case strings.HasSuffix(path, "/manifest"):
		return "manifest"
	case strings.HasPrefix(path, "/api/v1/campaigns/"):
		return "status"
	default:
		return "other"
	}
}

// rpcProbe is a client http.RoundTripper around its own transport, as each
// campaignworker process has its own. It records one span per call, from
// the request until the client closes the response body, and times every
// op of its worker from lease grant to acknowledged completion.
type rpcProbe struct {
	next   *http.Transport
	tr     *tracer
	parent int
	ops    *opLog

	mu        sync.Mutex
	errors    int
	grantAt   time.Time
	leaseSpan int
	op        int64
	waited    time.Duration // the op's wait at the gate
}

func newRPCProbe(tr *tracer, parent int, ops *opLog) *rpcProbe {
	return &rpcProbe{next: http.DefaultTransport.(*http.Transport).Clone(), tr: tr, parent: parent,
		ops: ops, leaseSpan: noSpan, op: noOp}
}

func (p *rpcProbe) RoundTrip(req *http.Request) (*http.Response, error) {
	name := rpcName(req.Method, req.URL.Path)
	op := noOp
	if name == "complete" {
		p.mu.Lock()
		op = p.op
		p.mu.Unlock()
	}
	id := p.tr.begin("rpc."+name, p.parent, op)
	if id != noSpan {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(id))
	}
	resp, err := p.next.RoundTrip(req)
	if err != nil {
		p.tr.end(id)
		p.mu.Lock()
		p.errors++
		p.mu.Unlock()
		return nil, err
	}
	status := resp.StatusCode
	resp.Body = &probeBody{ReadCloser: resp.Body, done: func() { p.finish(name, id, status) }}
	return resp, nil
}

// finish runs when the client closes a response body.
func (p *rpcProbe) finish(name string, id, status int) {
	now := time.Now()
	p.tr.end(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	if status >= 400 {
		p.errors++
		return
	}
	switch {
	case name == "lease" && status == http.StatusOK:
		p.grantAt, p.leaseSpan = now, id
	case name == "complete" && p.ops != nil:
		p.ops.add(p.grantAt, now, p.waited)
	}
}

// leased tells the probe which op its last granted lease serves, and how
// long the op waited at the gate.
func (p *rpcProbe) leased(op int64, waited time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.op, p.waited = op, waited
	p.tr.setOp(p.leaseSpan, op)
}

func (p *rpcProbe) errorCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.errors
}

// probeBody calls done once, when the response body is closed.
type probeBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *probeBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// handlerProbe wraps the daemon's http.Handler with one span per request,
// parented to the client span named in the request header.
type handlerProbe struct {
	next http.Handler
	tr   atomic.Pointer[tracer]
}

func (h *handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	tr := h.tr.Load()
	if tr == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	parent := noSpan
	if v, err := strconv.Atoi(r.Header.Get(spanHeader)); err == nil {
		parent = v
	}
	id := tr.begin("server."+rpcName(r.Method, r.URL.Path), parent, noOp)
	h.next.ServeHTTP(w, r)
	tr.end(id)
}

// runnerProbe is the worker's jobqueue.Runner: exptrun's, behind the gate
// and inside a span.
type runnerProbe struct {
	p      *rpcProbe
	gate   *pointGate
	tr     *tracer
	parent int
}

func (r *runnerProbe) RunPoint(l *jobqueue.Lease) (*campaign.Record, error) {
	waited := r.gate.enter()
	defer r.gate.exit()
	op := int64(l.ID)
	r.p.leased(op, waited)
	id := r.tr.begin("worker.run_point", r.parent, op)
	defer r.tr.end(id)
	return exptrun.Runner{}.RunPoint(l)
}

// pointGate keeps the workers' points and the reference kernel apart: a
// worker passes the gate before each point, and the kernel runs with the
// gate shut, once no point is running.
type pointGate struct {
	mu     sync.RWMutex
	waitNs atomic.Int64 // time spent waiting to pass, both workers together
}

// enter waits until the gate is open and returns how long that took. exit
// must follow once the point has run.
func (g *pointGate) enter() time.Duration {
	t := time.Now()
	g.mu.RLock()
	d := time.Since(t)
	g.waitNs.Add(int64(d))
	return d
}

func (g *pointGate) exit() { g.mu.RUnlock() }

// shut runs f with the gate shut.
func (g *pointGate) shut(f func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f()
}

func (g *pointGate) waited() time.Duration { return time.Duration(g.waitNs.Load()) }
