package client

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// TestRetryAfterDisconnectReexecutes: a keyed evaluation whose first
// attempt is cut off mid-sweep — the server's handler sees its context
// cancelled and answers 499 to nobody — must run again on the retry. The
// 499 is the consequence of that attempt's own disconnect, not an outcome
// of the request, so replaying it would turn a transient drop into a
// final "canceled" (4xx is not retryable) for as long as the key lives.
func TestRetryAfterDisconnectReexecutes(t *testing.T) {
	svc := service.New(service.Config{})
	inner := service.NewServer(svc)
	var posts, firstStatus atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost || posts.Add(1) != 1 {
			inner.ServeHTTP(w, r)
			return
		}
		// Play a client that goes away once the server is at work: cancel
		// the request context as soon as a lane is leased (plan build or
		// sweep), let the handler write into the void, drop the connection.
		ctx, cancel := context.WithCancel(r.Context())
		done := make(chan struct{})
		go func() {
			defer cancel()
			for svc.MetricsRegistry().Snapshot()["kifmm_lanes_in_use"] == 0 {
				select {
				case <-done:
					return
				case <-time.After(200 * time.Microsecond):
				}
			}
		}()
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r.WithContext(ctx))
		close(done)
		firstStatus.Store(int64(rec.Code))
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(ts.Close)

	req, den := smallGeometry(23, 10, 150)
	req.Degree = 6
	c := New(ts.URL, WithRetry(fastRetry()))
	_, pot, _, err := c.EvaluateOnce(context.Background(), req, den)
	if got := firstStatus.Load(); got != service.StatusClientClosedRequest {
		t.Fatalf("first attempt ended with status %d server-side, want 499 (the scenario did not happen)", got)
	}
	if err != nil {
		t.Fatalf("retry after a dropped first attempt: %v", err)
	}
	_, want, _, err := New(ts.URL).EvaluateOnce(context.Background(), req, den)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(pot[i]) != math.Float64bits(want[i]) {
			t.Fatalf("potentials[%d] of the retried request differ from a plain request", i)
		}
	}
}

// TestPerAttemptTimeoutNeverReplaysOwnCancellation is the same defect by
// the road a real caller takes: a per-attempt timeout shorter than the
// evaluation. Every attempt may time out — then the caller gets its own
// deadline back — but no attempt may be answered with the stored
// "canceled" of an earlier one.
func TestPerAttemptTimeoutNeverReplaysOwnCancellation(t *testing.T) {
	ts := httptest.NewServer(service.NewServer(service.New(service.Config{})))
	t.Cleanup(ts.Close)
	ctx := context.Background()

	warm, den := smallGeometry(29, 10, 400)
	warm.Degree = 6
	plain := New(ts.URL)
	if _, _, _, err := plain.EvaluateOnce(ctx, warm, den); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, _, err := plain.EvaluateOnce(ctx, warm, den); err != nil {
		t.Fatal(err)
	}
	timeout := time.Since(start) / 3

	fresh, den := smallGeometry(31, 10, 400)
	fresh.Degree = 6
	c := New(ts.URL, WithRetry(RetryPolicy{BaseDelay: time.Millisecond, PerAttemptTimeout: timeout}))
	_, _, _, err := c.EvaluateOnce(ctx, fresh, den)
	var api *APIError
	if errors.As(err, &api) && api.StatusCode == service.StatusClientClosedRequest {
		t.Fatalf("retry was answered with an earlier attempt's cancellation: %v", err)
	}
	if err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want potentials or the per-attempt deadline", err)
	}
}
