package client

import (
	"context"
	"errors"
	"math"
	"net/http/httptest"
	"testing"

	kifmm "repro"
	"repro/internal/service"
)

// startServer runs a full service + HTTP stack and returns a client
// bound to it: the end-to-end path the acceptance criteria exercise.
func startServer(t *testing.T) *Client {
	t.Helper()
	ts := httptest.NewServer(service.NewServer(service.New(service.Config{})))
	t.Cleanup(ts.Close)
	return New(ts.URL)
}

func TestEndToEndRoundTrip(t *testing.T) {
	svc := service.New(service.Config{})
	ts := httptest.NewServer(service.NewServer(svc))
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	ctx := context.Background()

	patches := kifmm.UniformPatches(7, 300)
	pts := kifmm.FlattenPatches(patches)
	den := kifmm.RandomDensities(8, len(pts)/3, 1)

	plan, err := c.RegisterPlan(ctx, PlanRequest{
		Src:    pts,
		Kernel: KernelSpec{Name: "laplace"},
		Degree: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Cached {
		t.Errorf("fresh plan reported cached")
	}
	if plan.SrcCount != len(pts)/3 {
		t.Errorf("SrcCount = %d, want %d", plan.SrcCount, len(pts)/3)
	}

	got, stats, err := c.Evaluate(ctx, plan.ID, den)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalNanos <= 0 {
		t.Errorf("stats not populated: %+v", stats)
	}

	want, err := kifmm.Direct(kifmm.Laplace(), pts, pts, den)
	if err != nil {
		t.Fatal(err)
	}
	num, denom := 0.0, 0.0
	for i := range got {
		d := got[i] - want[i]
		num += d * d
		denom += want[i] * want[i]
	}
	if e := math.Sqrt(num / denom); e > 1e-4 {
		t.Errorf("round-tripped potentials differ from Direct by %.3e", e)
	}

	// Second registration of the same geometry is served from cache.
	again, err := c.RegisterPlan(ctx, PlanRequest{
		Src:    pts,
		Kernel: KernelSpec{Name: "laplace"},
		Degree: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached || again.ID != plan.ID {
		t.Errorf("re-registration: %+v, want cached %s", again, plan.ID)
	}

	// One-shot path reuses the plan and agrees exactly.
	id, pot, _, err := c.EvaluateOnce(ctx, PlanRequest{
		Src:    pts,
		Kernel: KernelSpec{Name: "laplace"},
		Degree: 6,
	}, den)
	if err != nil {
		t.Fatal(err)
	}
	if id != plan.ID {
		t.Errorf("one-shot plan id %s, want %s", id, plan.ID)
	}
	for i := range pot {
		if pot[i] != got[i] {
			t.Fatalf("one-shot potentials diverge at %d", i)
		}
	}

	// Batched evaluation agrees with the single path per vector.
	pots, bstats, err := c.EvaluateBatch(ctx, plan.ID, [][]float64{den, den})
	if err != nil {
		t.Fatal(err)
	}
	if bstats.TotalNanos <= 0 {
		t.Errorf("batch stats not populated: %+v", bstats)
	}
	if len(pots) != 2 {
		t.Fatalf("batch returned %d vectors, want 2", len(pots))
	}
	for q := range pots {
		num, denom = 0, 0
		for i := range pots[q] {
			d := pots[q][i] - got[i]
			num += d * d
			denom += got[i] * got[i]
		}
		if e := math.Sqrt(num / denom); e > 1e-11 {
			t.Errorf("batch vector %d differs from single evaluation by %.3e", q, e)
		}
	}

	// Health reads back through the client; the counters are the
	// server's registry (GET /metrics).
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Plans != 1 {
		t.Errorf("health = %+v", h)
	}
	m := svc.MetricsRegistry().Snapshot()
	if m["kifmm_plans_built_total"] != 1 || m["kifmm_evaluations_total"] != 4 {
		t.Errorf("metrics = %v, want 1 plan built and 4 evaluations", m)
	}
	if m["kifmm_plan_cache_bytes"] <= 0 {
		t.Errorf("metrics missing plan footprint: %v", m)
	}
}

func TestClientErrors(t *testing.T) {
	c := startServer(t)
	ctx := context.Background()

	_, _, err := c.Evaluate(ctx, "no-such-plan", []float64{1})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 404 {
		t.Errorf("unknown plan: err = %v, want *APIError with 404", err)
	}

	_, err = c.RegisterPlan(ctx, PlanRequest{Src: []float64{0, 0, 0}, Kernel: KernelSpec{Name: "warp"}})
	if !errors.As(err, &apiErr) || apiErr.StatusCode != 400 {
		t.Errorf("bad kernel: err = %v, want *APIError with 400", err)
	}
	if apiErr != nil && apiErr.Message == "" {
		t.Errorf("error message not propagated")
	}
}
