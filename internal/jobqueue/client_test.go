package jobqueue

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"syscall"
	"testing"
	"time"
)

// newClientFixture wires a real queue+server behind a fault-injecting
// transport, with retry backoff shrunk to test scale.
func newClientFixture(t *testing.T) (*Client, *FaultTransport, *Queue) {
	t.Helper()
	clk := newFakeClock()
	q, err := NewQueue(testOptions(t, clk, 4))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	srv := httptest.NewServer(NewServer(q))
	t.Cleanup(srv.Close)
	ft := &FaultTransport{}
	c := &Client{
		Base:  srv.URL,
		HTTP:  &http.Client{Transport: ft, Timeout: 5 * time.Second},
		Retry: RetryPolicy{Attempts: 4, Backoff: BackoffPolicy{Base: time.Millisecond, Max: 4 * time.Millisecond}},
	}
	return c, ft, q
}

// TestAPIErrorCarriesStatusAndBody pins satellite #1: a non-2xx answer
// surfaces as a typed *APIError with the status code and the server's
// message (or a truncated body snippet), not an anonymous string.
func TestAPIErrorCarriesStatusAndBody(t *testing.T) {
	c, _, _ := newClientFixture(t)

	_, err := c.Status(t.Context(), "no-such-job")
	var api *APIError
	if !errors.As(err, &api) {
		t.Fatalf("unknown job: got %T (%v), want *APIError", err, err)
	}
	if api.Status != http.StatusNotFound {
		t.Fatalf("unknown job: %+v, want 404", api)
	}
	if api.Message == "" || !strings.Contains(err.Error(), "HTTP 404") {
		t.Fatalf("error lacks status/message: %q", err)
	}
	if Retryable(err) {
		t.Fatal("404 classified retryable")
	}

	// A non-JSON error body is snipped into the message, not dropped.
	long := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadGateway)
		io.WriteString(w, strings.Repeat("x", 500))
	}))
	defer long.Close()
	c2 := &Client{Base: long.URL, HTTP: long.Client()}
	_, err = c2.Status(t.Context(), "j")
	if !errors.As(err, &api) || api.Status != http.StatusBadGateway {
		t.Fatalf("gateway error: %v", err)
	}
	if len(api.Message) > 210 || !strings.HasSuffix(api.Message, "…") {
		t.Fatalf("body not truncated: %d bytes", len(api.Message))
	}
	if !Retryable(err) {
		t.Fatal("502 classified permanent")
	}
}

// TestRetryableClassification covers the error taxonomy table.
func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"500", &APIError{Status: 500}, true},
		{"503", &APIError{Status: 503}, true},
		{"429", &APIError{Status: 429}, true},
		{"408", &APIError{Status: 408}, true},
		{"400", &APIError{Status: 400}, false},
		{"404", &APIError{Status: 404}, false},
		{"canceled", context.Canceled, false},
		{"deadline", context.DeadlineExceeded, true},
		{"refused", &net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}, true},
		{"reset", syscall.ECONNRESET, true},
		{"severed", io.ErrUnexpectedEOF, true},
		{"wrapped severed", &url2Err{io.ErrUnexpectedEOF}, true},
	}
	for _, tc := range cases {
		if got := Retryable(tc.err); got != tc.want {
			t.Errorf("Retryable(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
	if notSent(io.ErrUnexpectedEOF) {
		t.Error("severed response classified as never-sent")
	}
	if !notSent(&net.OpError{Op: "dial", Err: syscall.ECONNREFUSED}) {
		t.Error("refused connection not classified as never-sent")
	}
}

// url2Err stands in for the url.Error wrapping the http client applies.
type url2Err struct{ err error }

func (e *url2Err) Error() string { return "Get \"x\": " + e.err.Error() }
func (e *url2Err) Unwrap() error { return e.err }

// TestClientRetriesThroughFaults drives idempotent calls through each
// transient fault and checks they recover transparently, with the
// transport's request counter proving a retry actually happened.
func TestClientRetriesThroughFaults(t *testing.T) {
	t.Run("dropped connection", func(t *testing.T) {
		c, ft, q := newClientFixture(t)
		mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 1})
		ft.Push(FaultDrop)
		st, err := c.Status(t.Context(), "j")
		if err != nil || st.Total != 4 {
			t.Fatalf("status through drop: %v %+v", err, st)
		}
		if got := ft.Requests(); got != 2 {
			t.Fatalf("%d round trips, want 2 (drop + retry)", got)
		}
	})
	t.Run("severed body", func(t *testing.T) {
		c, ft, q := newClientFixture(t)
		mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 1})
		ft.Push(FaultSever)
		if _, err := c.Status(t.Context(), "j"); err != nil {
			t.Fatalf("status through severed body: %v", err)
		}
		if got := ft.Requests(); got != 2 {
			t.Fatalf("%d round trips, want 2 (sever + retry)", got)
		}
	})
	t.Run("repeated drops exhaust attempts", func(t *testing.T) {
		c, ft, q := newClientFixture(t)
		mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 1})
		ft.Push(FaultDrop, FaultDrop, FaultDrop, FaultDrop)
		_, err := c.Status(t.Context(), "j")
		if err == nil || !Retryable(err) {
			t.Fatalf("four drops with four attempts: err=%v", err)
		}
		if got := ft.Requests(); got != 4 {
			t.Fatalf("%d round trips, want 4", got)
		}
	})
}

// TestNonIdempotentRetryDiscipline: Acquire (a lease grant per delivery)
// may be resent only when the request provably never arrived — connection
// refused — and must NOT be resent after an ambiguous mid-body failure,
// where the daemon may already have granted the lease.
func TestNonIdempotentRetryDiscipline(t *testing.T) {
	t.Run("refused connection retried", func(t *testing.T) {
		c, ft, q := newClientFixture(t)
		mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 1})
		ft.Push(FaultDrop)
		l, err := c.Acquire(t.Context(), "w1")
		if err != nil || l == nil {
			t.Fatalf("acquire through drop: %v %+v", err, l)
		}
		if got := ft.Requests(); got != 2 {
			t.Fatalf("%d round trips, want 2", got)
		}
	})
	t.Run("severed response NOT retried", func(t *testing.T) {
		c, ft, q := newClientFixture(t)
		mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 1})
		ft.Push(FaultSever)
		_, err := c.Acquire(t.Context(), "w1")
		if err == nil {
			t.Fatal("severed acquire returned no error")
		}
		if !Retryable(err) {
			t.Fatalf("severed acquire should still be retryable by the caller: %v", err)
		}
		if got := ft.Requests(); got != 1 {
			t.Fatalf("%d round trips, want 1 (no transparent resend)", got)
		}
		// The grant may have landed: exactly one lease is out.
		st, _ := q.Status("j")
		if st.Leased != 1 {
			t.Fatalf("leased = %d after severed acquire, want 1", st.Leased)
		}
	})
}

// TestDuplicateDeliveryTolerated: a retransmitted Complete (FaultDupe
// sends the request twice) must land exactly one checkpoint record, with
// the second delivery counted as a discarded duplicate.
func TestDuplicateDeliveryTolerated(t *testing.T) {
	c, ft, q := newClientFixture(t)
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 1})
	l := mustAcquire(t, q, "w1")
	ft.Push(FaultDupe)
	if err := c.Complete(t.Context(), l.Ref(), recFor(l)); err != nil {
		t.Fatalf("duplicated complete: %v", err)
	}
	st, _ := q.Status("j")
	if st.Done != 1 || st.Duplicates != 1 {
		t.Fatalf("after duplicated delivery: %+v", st)
	}
	if got := sinkLines(t, q, "j"); got != 1 {
		t.Fatalf("checkpoint holds %d records, want exactly 1", got)
	}
}

// TestRetryRespectsContext: cancellation cuts the retry loop short
// instead of sleeping out the full backoff schedule.
func TestRetryRespectsContext(t *testing.T) {
	c, ft, q := newClientFixture(t)
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 1})
	c.Retry = RetryPolicy{Attempts: 10, Backoff: BackoffPolicy{Base: time.Minute, Max: time.Minute}}
	ft.Push(FaultDrop, FaultDrop, FaultDrop)
	ctx, cancel := context.WithTimeout(t.Context(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Status(ctx, "j")
	if err == nil {
		t.Fatal("expected an error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry loop ignored context for %v", elapsed)
	}
	if got := ft.Requests(); got != 1 {
		t.Fatalf("%d round trips, want 1 (context ended during first backoff)", got)
	}
}

// TestRecordsRetriesOnlyBeforeFirstByte: the stream fetch retries like
// any idempotent call until output starts; after that a cut surfaces as
// an error so the caller never gets silently duplicated lines.
func TestRecordsRetriesOnlyBeforeFirstByte(t *testing.T) {
	c, ft, q := newClientFixture(t)
	mustSubmit(t, q, JobSpec{ID: "j", Experiments: []string{"all"}, Seed: 1})
	l := mustAcquire(t, q, "w1")
	if err := q.Complete(l.Ref(), recFor(l)); err != nil {
		t.Fatal(err)
	}

	ft.Push(FaultDrop)
	var buf strings.Builder
	if err := c.Records(t.Context(), "j", &buf); err != nil {
		t.Fatalf("records through drop: %v", err)
	}
	if !strings.HasSuffix(buf.String(), "\n") || strings.Count(buf.String(), "\n") != 1 {
		t.Fatalf("streamed records malformed: %q", buf.String())
	}

	ft.Push(FaultSever) // cut mid-body, after bytes flowed
	var buf2 strings.Builder
	err := c.Records(t.Context(), "j", &buf2)
	if err == nil {
		t.Fatal("mid-stream cut reported success")
	}
	if buf2.Len() == 0 {
		t.Fatal("expected partial output before the cut")
	}
}
