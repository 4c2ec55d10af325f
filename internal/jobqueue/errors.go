package jobqueue

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"syscall"
)

// APIError is a non-2xx answer from the daemon, carrying enough to branch
// on: the status code plus the server's error message (or a truncated
// body snippet when the answer was not the API's JSON error shape).
type APIError struct {
	Method  string
	Path    string
	Status  int
	Message string
}

func (e *APIError) Error() string {
	msg := e.Message
	if msg == "" {
		msg = http.StatusText(e.Status)
	}
	return fmt.Sprintf("%s %s: HTTP %d: %s", e.Method, e.Path, e.Status, msg)
}

// Retryable classifies an error from a Client call: true for transient
// transport failures (timeouts, refused/reset connections, a response
// severed mid-body) and server-side trouble (5xx, 429), false for
// permanent answers (4xx — the request itself is wrong) and for the
// caller's own cancellation. context.DeadlineExceeded is transient
// because the HTTP client's per-request timeout surfaces as it; callers
// that set their own deadline check their ctx separately.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	var api *APIError
	if errors.As(err, &api) {
		switch {
		case api.Status >= 500, api.Status == http.StatusTooManyRequests, api.Status == http.StatusRequestTimeout:
			return true
		default:
			return false
		}
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return true
	}
	var oe *net.OpError
	if errors.As(err, &oe) {
		return true // dial/read/write failed at the transport layer
	}
	if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) ||
		errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return true
	}
	return false
}

// notSent reports whether the request provably never reached the daemon —
// the only transient class a non-idempotent call (Submit, Acquire) may
// retry without risking a double effect. Connection refused means nothing
// listened; everything past the dial might have been processed.
func notSent(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED)
}
