package jobqueue

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/campaign"
)

// RetryPolicy shapes the client's transparent retry: up to Attempts total
// tries per call, separated by the shared backoff curve. Attempts <= 1
// disables retry.
type RetryPolicy struct {
	Attempts int
	Backoff  BackoffPolicy
}

// Client speaks the campaignd HTTP API (see Server for the endpoint map).
// It is used by the worker loop, by campaignctl, and by tests.
//
// Calls take a context and retry transient failures (refused/reset
// connections, timeouts, responses severed mid-body, 5xx) under the
// Retry policy — but only for idempotent requests. Submit and Acquire
// have side effects per delivery, so they retry only when the request
// provably never reached the daemon (connection refused); everything
// else surfaces immediately with a typed *APIError the caller can branch
// on via Retryable, or its Status via errors.As.
type Client struct {
	// Base is the daemon URL, e.g. "http://127.0.0.1:8655".
	Base string
	// HTTP is the transport (default: a client with a 30s timeout). Swap
	// its Transport for a FaultTransport to chaos-test the call paths.
	HTTP *http.Client
	// Retry shapes transparent retries (NewClient defaults: 4 attempts,
	// 150ms base, 3s cap). The zero value disables retry.
	Retry RetryPolicy
}

// NewClient builds a client for the daemon at base with retry enabled.
func NewClient(base string) *Client {
	return &Client{
		Base:  base,
		HTTP:  &http.Client{Timeout: 30 * time.Second},
		Retry: RetryPolicy{Attempts: 4, Backoff: BackoffPolicy{Base: 150 * time.Millisecond, Max: 3 * time.Second}},
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do runs one JSON call with retry. A nil in sends no body; a nil out
// discards the response body. 204 yields (false, nil) so callers can
// distinguish "no content" without an error. idem marks the request safe
// to resend after an ambiguous failure.
func (c *Client) do(ctx context.Context, method, path string, in, out any, idem bool) (bool, error) {
	var payload []byte
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return false, err
		}
		payload = data
	}
	attempts := c.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for try := 1; ; try++ {
		ok, err := c.once(ctx, method, path, payload, out)
		if err == nil {
			return ok, nil
		}
		lastErr = err
		if ctx.Err() != nil || try >= attempts {
			break
		}
		if idem && !Retryable(err) {
			break
		}
		if !idem && !notSent(err) {
			break
		}
		if err := sleepRetry(ctx, c.Retry.Backoff.Delay(try)); err != nil {
			break
		}
	}
	return false, lastErr
}

// once is a single round trip.
func (c *Client) once(ctx context.Context, method, path string, payload []byte, out any) (bool, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return false, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return false, nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return false, fmt.Errorf("%s %s: read response: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		apiErr := &APIError{Method: method, Path: path, Status: resp.StatusCode}
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
		} else {
			apiErr.Message = snippet(data)
		}
		return false, apiErr
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return false, fmt.Errorf("%s %s: decode response %q: %w", method, path, snippet(data), err)
		}
	}
	return true, nil
}

// snippet truncates a response body for inclusion in an error message.
func snippet(data []byte) string {
	const max = 200
	s := string(bytes.TrimSpace(data))
	if len(s) > max {
		s = s[:max] + "…"
	}
	return s
}

// sleepRetry waits out a backoff delay unless the context ends first.
func sleepRetry(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Submit submits a campaign spec and returns its initial status.
func (c *Client) Submit(ctx context.Context, spec JobSpec) (*JobStatus, error) {
	var st JobStatus
	if _, err := c.do(ctx, "POST", "/api/v1/campaigns", spec, &st, false); err != nil {
		return nil, err
	}
	return &st, nil
}

// Status fetches one job's live status.
func (c *Client) Status(ctx context.Context, jobID string) (*JobStatus, error) {
	var st JobStatus
	if _, err := c.do(ctx, "GET", "/api/v1/campaigns/"+jobID, nil, &st, true); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists every job.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var out struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if _, err := c.do(ctx, "GET", "/api/v1/campaigns", nil, &out, true); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// ManifestOf fetches a job's current failure manifest.
func (c *Client) ManifestOf(ctx context.Context, jobID string) (*Manifest, error) {
	var m Manifest
	if _, err := c.do(ctx, "GET", "/api/v1/campaigns/"+jobID+"/manifest", nil, &m, true); err != nil {
		return nil, err
	}
	return &m, nil
}

// Records streams a job's JSONL record file into w. The fetch retries
// like any idempotent call until the first byte is written; a stream cut
// after that surfaces as an error rather than risking duplicated output.
func (c *Client) Records(ctx context.Context, jobID string, w io.Writer) error {
	attempts := c.Retry.Attempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for try := 1; ; try++ {
		n, err := c.recordsOnce(ctx, jobID, w)
		if err == nil {
			return nil
		}
		lastErr = err
		if n > 0 || ctx.Err() != nil || try >= attempts || !Retryable(err) {
			break
		}
		if err := sleepRetry(ctx, c.Retry.Backoff.Delay(try)); err != nil {
			break
		}
	}
	return lastErr
}

func (c *Client) recordsOnce(ctx context.Context, jobID string, w io.Writer) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, "GET", c.Base+"/api/v1/campaigns/"+jobID+"/records", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		apiErr := &APIError{Method: "GET", Path: "/api/v1/campaigns/" + jobID + "/records", Status: resp.StatusCode}
		var e struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &e) == nil && e.Error != "" {
			apiErr.Message = e.Error
		} else {
			apiErr.Message = snippet(data)
		}
		return 0, apiErr
	}
	return io.Copy(w, resp.Body)
}

// Register announces a worker and returns the daemon's cadences.
func (c *Client) Register(ctx context.Context, workerID string) (*RegisterInfo, error) {
	var info RegisterInfo
	req := map[string]string{"id": workerID}
	if _, err := c.do(ctx, "POST", "/api/v1/workers/register", req, &info, true); err != nil {
		return nil, err
	}
	return &info, nil
}

// Heartbeat marks the worker live and renews exactly the leases it
// reports holding (held may be empty). Reporting the held set — rather
// than letting the daemon renew blindly — lets a lease whose grant
// response was lost in transit expire and requeue instead of being kept
// alive forever by a worker that never knew it had it.
func (c *Client) Heartbeat(ctx context.Context, workerID string, held []uint64) error {
	req := struct {
		ID     string   `json:"id"`
		Leases []uint64 `json:"leases"`
	}{workerID, held}
	_, err := c.do(ctx, "POST", "/api/v1/workers/heartbeat", req, nil, true)
	return err
}

// Acquire asks for the next lease; (nil, nil) when nothing is runnable.
func (c *Client) Acquire(ctx context.Context, workerID string) (*Lease, error) {
	var l Lease
	ok, err := c.do(ctx, "POST", "/api/v1/lease", map[string]string{"worker": workerID}, &l, false)
	if err != nil || !ok {
		return nil, err
	}
	return &l, nil
}

// Complete reports a finished point with its record. Idempotent: the
// queue discards duplicate completions, so an ambiguous failure resends.
func (c *Client) Complete(ctx context.Context, ref LeaseRef, rec *campaign.Record) error {
	req := struct {
		Lease  LeaseRef         `json:"lease"`
		Record *campaign.Record `json:"record"`
	}{ref, rec}
	_, err := c.do(ctx, "POST", "/api/v1/complete", req, nil, true)
	return err
}

// Fail reports a point failure. Idempotent: the queue ignores stale
// reports, so an ambiguous failure resends.
func (c *Client) Fail(ctx context.Context, ref LeaseRef, msg string) error {
	req := struct {
		Lease LeaseRef `json:"lease"`
		Error string   `json:"error"`
	}{ref, msg}
	_, err := c.do(ctx, "POST", "/api/v1/fail", req, nil, true)
	return err
}

// Healthz checks daemon liveness.
func (c *Client) Healthz(ctx context.Context) (*Health, error) {
	var h Health
	if _, err := c.do(ctx, "GET", "/healthz", nil, &h, true); err != nil {
		return nil, err
	}
	return &h, nil
}
