package client

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	kifmm "repro"
	"repro/internal/service"
)

// bigServer returns a client bound to a fresh service plus a registered
// plan slow enough to cancel mid-flight.
func bigServer(t *testing.T, opts ...service.ServerOption) (*Client, *service.Service, PlanInfo, []float64) {
	t.Helper()
	svc := service.New(service.Config{})
	ts := httptest.NewServer(service.NewServer(svc, opts...))
	t.Cleanup(ts.Close)
	c := New(ts.URL)

	pts := kifmm.FlattenPatches(kifmm.UniformPatches(9, 4000))
	den := kifmm.RandomDensities(10, len(pts)/3, 1)
	plan, err := c.RegisterPlan(context.Background(), PlanRequest{
		Src: pts, Kernel: KernelSpec{Name: "laplace"}, Degree: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the lazily built operator caches so cancel timing measures
	// the sweep, not operator construction.
	if _, _, err := c.Evaluate(context.Background(), plan.ID, den); err != nil {
		t.Fatal(err)
	}
	return c, svc, plan, den
}

// TestClientCancelPropagatesTyped: cancelling the client's context
// mid-evaluation yields an error satisfying the full taxonomy contract
// — kifmm.ErrCanceled AND context.Canceled — and stops the server-side
// sweep (the acceptance criterion's end-to-end path).
func TestClientCancelPropagatesTyped(t *testing.T) {
	c, svc, plan, den := bigServer(t)

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	_, _, err := c.Evaluate(ctx, plan.ID, den)
	if err == nil {
		t.Skip("evaluation outran the cancel on this machine")
	}
	if !errors.Is(err, kifmm.ErrCanceled) {
		t.Errorf("err = %v, want errors.Is(err, kifmm.ErrCanceled)", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want errors.Is(err, context.Canceled)", err)
	}

	// Server side: the sweep aborted and was recorded as a cancellation.
	deadline := time.Now().Add(5 * time.Second)
	for svc.MetricsRegistry().Snapshot()["kifmm_eval_canceled_total"] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server never recorded the cancellation; metrics %+v", svc.MetricsRegistry().Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClientDeadlineTyped: a client-side deadline produces the deadline
// taxonomy error end to end.
func TestClientDeadlineTyped(t *testing.T) {
	c, _, plan, den := bigServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, _, err := c.Evaluate(ctx, plan.ID, den)
	if err == nil {
		t.Skip("evaluation outran the deadline on this machine")
	}
	if !errors.Is(err, kifmm.ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want ErrDeadlineExceeded and context.DeadlineExceeded", err)
	}
}

// TestServerTimeoutReconstructedTyped: a server-side -eval-timeout 504
// crosses the wire as a reconstructed typed error, so errors.Is works
// on a context the client never saw.
func TestServerTimeoutReconstructedTyped(t *testing.T) {
	// Register and warm through an untimed server; only the evaluation
	// goes through the 2ms-deadline one (sharing the same service).
	_, svc, plan, den := bigServer(t)
	tts := httptest.NewServer(service.NewServer(svc, service.WithEvalTimeout(2*time.Millisecond)))
	t.Cleanup(tts.Close)
	timed := New(tts.URL)
	_, _, err := timed.Evaluate(context.Background(), plan.ID, den)
	if err == nil {
		t.Skip("evaluation beat the server timeout on this machine")
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("err = %v, want *APIError", err)
	}
	if apiErr.StatusCode != 504 {
		t.Errorf("status = %d, want 504", apiErr.StatusCode)
	}
	if !errors.Is(err, kifmm.ErrDeadlineExceeded) {
		t.Errorf("wire error must reconstruct ErrDeadlineExceeded; got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("wire error must satisfy context.DeadlineExceeded; got %v", err)
	}
}

// TestWireCodesReconstructTyped: each wire code reconstructs its
// sentinel through the client.
func TestWireCodesReconstructTyped(t *testing.T) {
	c := startServer(t)
	ctx := context.Background()

	_, _, err := c.Evaluate(ctx, "no-such-plan", []float64{1})
	if !errors.Is(err, kifmm.ErrPlanNotFound) {
		t.Errorf("unknown plan: err = %v, want kifmm.ErrPlanNotFound", err)
	}
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != kifmm.CodePlanNotFound {
		t.Errorf("unknown plan: code = %v, want %q", err, kifmm.CodePlanNotFound)
	}

	_, err = c.RegisterPlan(ctx, PlanRequest{Src: []float64{0, 0, 0}, Kernel: KernelSpec{Name: "warp"}})
	if !errors.Is(err, kifmm.ErrUnknownKernel) {
		t.Errorf("unknown kernel: err = %v, want kifmm.ErrUnknownKernel", err)
	}

	_, err = c.RegisterPlan(ctx, PlanRequest{Src: []float64{1, 2}, Kernel: KernelSpec{Name: "laplace"}})
	if !errors.Is(err, kifmm.ErrInvalidInput) {
		t.Errorf("bad geometry: err = %v, want kifmm.ErrInvalidInput", err)
	}

	_, err = c.RegisterPlan(ctx, PlanRequest{Src: []float64{0, 0, 0}, Kernel: KernelSpec{Name: "laplace"}, Degree: 1 << 20})
	if !errors.Is(err, kifmm.ErrPlanTooLarge) {
		t.Errorf("degree bomb: err = %v, want kifmm.ErrPlanTooLarge", err)
	}
	if errors.Is(err, kifmm.ErrInvalidInput) {
		t.Errorf("plan_too_large must not also match invalid_input")
	}
}
