package client

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	kifmm "repro"
	"repro/internal/service"
)

// smallGeometry returns a deterministic plan request plus matching
// densities.
func smallGeometry(seed int64, patches, perPatch int) (PlanRequest, []float64) {
	pts := kifmm.FlattenPatches(kifmm.UniformPatches(seed, patches*perPatch))
	den := kifmm.RandomDensities(seed+1, len(pts)/3, 1)
	return PlanRequest{Src: pts, Kernel: KernelSpec{Name: "laplace"}, Degree: 4}, den
}

// TestDecodeFailureIsFinal: a 200 whose body does not decode is a
// deterministic mismatch — the retry loop must not burn its budget on
// it, and the error must expose the decode failure.
func TestDecodeFailureIsFinal(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"status": "ok", truncated`))
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL, WithRetry(fastRetry()))
	_, err := c.Health(context.Background())
	if err == nil {
		t.Fatal("corrupt 200 body decoded without error")
	}
	var dec *decodeError
	if !errors.As(err, &dec) {
		t.Fatalf("corrupt 200 body returned %T (%v), want *decodeError", err, err)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server saw %d attempts for a decode failure, want 1", got)
	}
}

// TestBinaryNegotiationBitwise: a WithBinary client (frame request
// bodies) and a default client (JSON bodies) get bitwise-identical
// potentials from the same server, across register, evaluate, batch
// and one-shot.
func TestBinaryNegotiationBitwise(t *testing.T) {
	ts := httptest.NewServer(service.NewServer(service.New(service.Config{})))
	t.Cleanup(ts.Close)
	jsonC := New(ts.URL)
	binC := New(ts.URL, WithBinary())
	ctx := context.Background()

	req, den := smallGeometry(5, 10, 30)
	plan, err := binC.RegisterPlan(ctx, req)
	if err != nil {
		t.Fatalf("binary RegisterPlan: %v", err)
	}
	if again, err := jsonC.RegisterPlan(ctx, req); err != nil || again.ID != plan.ID {
		t.Fatalf("JSON re-registration got (%+v, %v), want cached %s — frame and JSON bodies must hash identically", again, err, plan.ID)
	}

	jsonPot, _, err := jsonC.Evaluate(ctx, plan.ID, den)
	if err != nil {
		t.Fatal(err)
	}
	binPot, _, err := binC.Evaluate(ctx, plan.ID, den)
	if err != nil {
		t.Fatal(err)
	}
	if len(binPot) != len(jsonPot) {
		t.Fatalf("lengths differ: %d vs %d", len(binPot), len(jsonPot))
	}
	for i := range binPot {
		if math.Float64bits(binPot[i]) != math.Float64bits(jsonPot[i]) {
			t.Fatalf("potentials[%d] differ between encodings", i)
		}
	}

	// Batch entries with identical densities must be bitwise identical
	// to each other; against the single evaluation only agreement to
	// rounding is guaranteed (the batch sweep may sum in another order).
	binPots, _, err := binC.EvaluateBatch(ctx, plan.ID, [][]float64{den, den})
	if err != nil {
		t.Fatal(err)
	}
	jsonPots, _, err := jsonC.EvaluateBatch(ctx, plan.ID, [][]float64{den, den})
	if err != nil {
		t.Fatal(err)
	}
	for q := range binPots {
		for i := range binPots[q] {
			if math.Float64bits(binPots[q][i]) != math.Float64bits(jsonPots[q][i]) {
				t.Fatalf("batch[%d][%d] differs between encodings", q, i)
			}
			if math.Float64bits(binPots[q][i]) != math.Float64bits(binPots[0][i]) {
				t.Fatalf("batch[%d][%d] differs across identical queries", q, i)
			}
			if d := math.Abs(binPots[q][i] - jsonPot[i]); d > 1e-9*(1+math.Abs(jsonPot[i])) {
				t.Fatalf("batch[%d][%d]=%g far from single evaluation %g", q, i, binPots[q][i], jsonPot[i])
			}
		}
	}

	id, oncePot, _, err := binC.EvaluateOnce(ctx, req, den)
	if err != nil {
		t.Fatal(err)
	}
	if id != plan.ID {
		t.Errorf("one-shot plan id %s, want %s", id, plan.ID)
	}
	for i := range oncePot {
		if math.Float64bits(oncePot[i]) != math.Float64bits(jsonPot[i]) {
			t.Fatalf("one-shot potentials[%d] differs", i)
		}
	}
}

// TestOldServerJSONFallback: a server that ignores the Accept header
// and always answers JSON (an older kifmm-serve) still works — the
// client branches on the response Content-Type, not on what it asked
// for.
func TestOldServerJSONFallback(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.Header.Get("Accept"), service.ContentTypeFrame) {
			t.Error("evaluation request did not advertise the frame encoding")
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(service.EvaluateResponse{
			PlanID: "p", Potentials: []float64{1, 2, 3},
		})
	}))
	t.Cleanup(ts.Close)

	pot, _, err := New(ts.URL).Evaluate(context.Background(), "p", []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pot) != 3 || pot[0] != 1 {
		t.Fatalf("JSON fallback potentials = %v", pot)
	}
}

// TestEvaluateIdempotentRetryAcross503: the acceptance scenario — an
// evaluation POST hits one injected 503 worker_lost, the client
// retries carrying the same Idempotency-Key, and the caller sees the
// correct result computed exactly once.
func TestEvaluateIdempotentRetryAcross503(t *testing.T) {
	svc := service.New(service.Config{})
	inner := service.NewServer(svc)
	var keys []string
	var injected atomic.Bool
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/evaluate") && r.Method == http.MethodPost {
			keys = append(keys, r.Header.Get("Idempotency-Key"))
			if injected.CompareAndSwap(false, true) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				json.NewEncoder(w).Encode(map[string]string{"error": "cluster workers lost", "code": "worker_lost"})
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL, WithRetry(fastRetry()))
	ctx := context.Background()
	req, den := smallGeometry(3, 8, 25)
	plan, err := c.RegisterPlan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	pot, _, err := c.Evaluate(ctx, plan.ID, den)
	if err != nil {
		t.Fatalf("Evaluate across injected 503: %v", err)
	}
	if len(pot) != plan.TrgCount*plan.TargetDim {
		t.Fatalf("potentials length %d, want %d", len(pot), plan.TrgCount*plan.TargetDim)
	}
	if len(keys) != 2 {
		t.Fatalf("server saw %d evaluation attempts, want 2", len(keys))
	}
	if keys[0] == "" || keys[0] != keys[1] {
		t.Fatalf("attempts carried keys %q and %q, want one identical non-empty key", keys[0], keys[1])
	}
	// The failed attempt never reached the service, and the retry hit
	// it once: the sweep ran exactly once.
	if n := svc.MetricsRegistry().Snapshot()["kifmm_evaluations_total"]; n != 1 {
		t.Errorf("evaluations = %v, want exactly 1", n)
	}
	// Sanity: the result is the real one, matching a direct re-run.
	pot2, _, err := c.Evaluate(ctx, plan.ID, den)
	if err != nil {
		t.Fatal(err)
	}
	for i := range pot {
		if math.Float64bits(pot[i]) != math.Float64bits(pot2[i]) {
			t.Fatalf("retried result differs from a clean evaluation at %d", i)
		}
	}
}

// TestUploadArrayResumesAcrossFailure: a chunk POST that dies with a
// 503 mid-transfer is retried from the server-reported committed
// offset; the registered plan is identical to one registered inline.
func TestUploadArrayResumesAcrossFailure(t *testing.T) {
	svc := service.New(service.Config{})
	inner := service.NewServer(svc)
	var chunkPosts, failed atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.Contains(r.URL.Path, "/v1/uploads/") {
			// Fail the second chunk once.
			if chunkPosts.Add(1) == 2 && failed.CompareAndSwap(0, 1) {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusServiceUnavailable)
				json.NewEncoder(w).Encode(map[string]string{"error": "transient", "code": "worker_lost"})
				return
			}
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)

	c := New(ts.URL, WithRetry(fastRetry()), WithChunkWords(90))
	ctx := context.Background()
	req, den := smallGeometry(7, 6, 20)

	plan, err := c.RegisterPlanChunked(ctx, req)
	if err != nil {
		t.Fatalf("RegisterPlanChunked across chunk failure: %v", err)
	}
	if chunkPosts.Load() < 3 {
		t.Errorf("chunk POSTs = %d, want at least 3 (split + one retried)", chunkPosts.Load())
	}
	direct, err := c.RegisterPlan(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !direct.Cached || direct.ID != plan.ID {
		t.Fatalf("chunked plan %s != direct plan %s (cached=%v): upload bytes must match inline bytes exactly",
			plan.ID, direct.ID, direct.Cached)
	}
	if _, _, err := c.Evaluate(ctx, plan.ID, den); err != nil {
		t.Fatal(err)
	}
}
