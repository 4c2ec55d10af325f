package jobqueue

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"repro/internal/campaign"
)

// Server exposes a Queue over HTTP/JSON — the campaignd API.
//
// Campaign API:
//
//	POST /api/v1/campaigns            submit a JobSpec; 200 JobStatus, 400 on a validation error
//	GET  /api/v1/campaigns            list jobs (summaries)
//	GET  /api/v1/campaigns/{id}       live status: progress counts, leases, failures, ETA
//	GET  /api/v1/campaigns/{id}/records   stream the JSONL records written so far
//	GET  /api/v1/campaigns/{id}/manifest  current (or final) failure manifest
//
// Worker API:
//
//	POST /api/v1/workers/register     {"id": ...}; 200 {"lease_ttl_ms", "heartbeat_ms"}
//	POST /api/v1/workers/heartbeat    {"id": ..., "leases": [held lease IDs]}
//	POST /api/v1/lease                {"worker": ...}; 200 Lease or 204 when nothing is runnable
//	POST /api/v1/complete             {"lease": LeaseRef, "record": Record}
//	POST /api/v1/fail                 {"lease": LeaseRef, "error": "..."}
//
// Operability:
//
//	GET  /healthz                     liveness + fleet/job counts
type Server struct {
	q   *Queue
	mux *http.ServeMux
}

// NewServer wraps a queue with the HTTP API.
func NewServer(q *Queue) *Server {
	s := &Server{q: q, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/campaigns", s.handleJobs)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/records", s.handleRecords)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/manifest", s.handleManifest)
	s.mux.HandleFunc("POST /api/v1/workers/register", s.handleRegister)
	s.mux.HandleFunc("POST /api/v1/workers/heartbeat", s.handleHeartbeat)
	s.mux.HandleFunc("POST /api/v1/lease", s.handleLease)
	s.mux.HandleFunc("POST /api/v1/complete", s.handleComplete)
	s.mux.HandleFunc("POST /api/v1/fail", s.handleFail)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// RunSweeper expires leases on a ticker until stop is closed. The daemon
// runs it in a goroutine; tests drive Queue.Sweep directly.
func (s *Server) RunSweeper(interval time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.q.Sweep()
		case <-stop:
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone mid-response is its problem
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(io.LimitReader(r.Body, 64<<20))
	if err := dec.Decode(v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed request body: %w", err))
		return false
	}
	return true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if !decodeBody(w, r, &spec) {
		return
	}
	st, err := s.q.Submit(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.q.Jobs()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.q.Status(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleRecords(w http.ResponseWriter, r *http.Request) {
	path, ok := s.q.RecordsPath(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return
	}
	// The sink is append-only and every record is one atomic write+sync, so
	// streaming the file concurrently with appends yields a clean prefix.
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		w.Header().Set("Content-Type", "application/jsonl")
		w.WriteHeader(http.StatusOK)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/jsonl")
	w.WriteHeader(http.StatusOK)
	io.Copy(w, f) //nolint:errcheck // client gone mid-stream is its problem
}

func (s *Server) handleManifest(w http.ResponseWriter, r *http.Request) {
	m, ok := s.q.ManifestOf(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown campaign %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, m)
}

// RegisterInfo is the register response: the cadences the daemon expects.
type RegisterInfo struct {
	LeaseTTLMS  int64 `json:"lease_ttl_ms"`
	HeartbeatMS int64 `json:"heartbeat_ms"`
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID string `json:"id"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.q.RegisterWorker(req.ID); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, RegisterInfo{
		LeaseTTLMS:  s.q.opts.LeaseTTL.Milliseconds(),
		HeartbeatMS: (s.q.opts.HeartbeatTimeout / 3).Milliseconds(),
	})
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID string `json:"id"`
		// Leases is the worker's own view of what it holds: exactly that set
		// is renewed, and none when it is absent.
		Leases []uint64 `json:"leases"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.q.HeartbeatLeases(req.ID, req.Leases); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Worker string `json:"worker"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	lease, err := s.q.Acquire(req.Worker)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if lease == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, lease)
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Lease  LeaseRef         `json:"lease"`
		Record *campaign.Record `json:"record"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.q.Complete(req.Lease, req.Record); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Lease LeaseRef `json:"lease"`
		Error string   `json:"error"`
	}
	if !decodeBody(w, r, &req) {
		return
	}
	if err := s.q.Fail(req.Lease, req.Error); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.q.Healthz())
}
