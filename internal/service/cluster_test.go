package service

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/kernels"
)

// clusterService builds a coordinator with two one-lane workers and a
// Service that routes one-shot requests of >= minPoints sources to it.
func clusterService(t *testing.T, minPoints int) (*Service, *cluster.Coordinator) {
	t.Helper()
	coord, err := cluster.StartCoordinator(context.Background(), "127.0.0.1:0", cluster.CoordinatorConfig{Heartbeat: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	for i := 0; i < 2; i++ {
		w, err := cluster.StartWorker(context.Background(), cluster.WorkerConfig{Coordinator: coord.Addr(), Lanes: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
	}
	return New(Config{Cluster: coord, ClusterMinPoints: minPoints}), coord
}

// TestOneShotRoutesToCluster: a cluster-sized one-shot fans out over
// the workers and matches the local engine to near machine precision,
// while a sub-threshold request keeps the single-node plan path.
func TestOneShotRoutesToCluster(t *testing.T) {
	svc, coord := clusterService(t, 4000)

	rng := rand.New(rand.NewSource(11))
	const n = 6000
	pts := geom.Flatten(geom.SphereGrid(rng, n, 1, 0.05))
	den := geom.RandomDensities(rng, n, 1)
	// Degree 4 keeps the equivalent-surface pseudo-inverse conditioned
	// well enough that the distributed and single-node operator
	// orderings agree far below the tolerance (see the cluster
	// package's conformance test for the full analysis).
	req := OneShotRequest{
		PlanRequest: PlanRequest{
			Src:    pts,
			Kernel: kernels.Spec{Name: "laplace"},
			Degree: 4, MaxPoints: 60,
		},
		Densities: den,
	}

	res, err := svc.EvaluateOnce(context.Background(), req)
	if err != nil {
		t.Fatalf("cluster one-shot: %v", err)
	}
	pot, st := res.Potentials[0], res.Stats
	if res.PlanID != "" {
		t.Errorf("cluster one-shot produced plan id %q, want none (nothing cached)", res.PlanID)
	}
	if coord.Evals() != 1 {
		t.Errorf("coordinator ran %d evals, want 1", coord.Evals())
	}
	if st.GrantedLanes != 2 {
		t.Errorf("cluster eval used %d ranks, want 2", st.GrantedLanes)
	}

	// Local reference through the ordinary plan path on a second
	// service with no cluster attached.
	local := New(Config{})
	res, err = local.EvaluateOnce(context.Background(), req)
	if err != nil {
		t.Fatalf("local one-shot: %v", err)
	}
	ref := res.Potentials[0]
	var num, den2 float64
	for i := range ref {
		d := pot[i] - ref[i]
		num += d * d
		den2 += ref[i] * ref[i]
	}
	if rel := math.Sqrt(num / den2); rel > 1e-12 {
		t.Errorf("cluster vs local relative L2 error %g > 1e-12", rel)
	}

	// Sub-threshold request: stays local, builds a plan.
	small := req
	small.Src = pts[:3*1000]
	small.Densities = den[:1000]
	res, err = svc.EvaluateOnce(context.Background(), small)
	if err != nil {
		t.Fatalf("sub-threshold one-shot: %v", err)
	}
	if res.PlanID == "" {
		t.Error("sub-threshold one-shot did not build a local plan")
	}
	if coord.Evals() != 1 {
		t.Errorf("sub-threshold request reached the cluster (evals=%d)", coord.Evals())
	}
}

// TestClusterDegradedMode: with zero workers the coordinator rejects
// cluster-sized requests with a typed worker_lost (HTTP 503) while the
// service keeps serving single-node work.
func TestClusterDegradedMode(t *testing.T) {
	coord, err := cluster.StartCoordinator(context.Background(), "127.0.0.1:0", cluster.CoordinatorConfig{Heartbeat: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	svc := New(Config{Cluster: coord, ClusterMinPoints: 1000})

	rng := rand.New(rand.NewSource(12))
	pts := geom.Flatten(geom.SphereGrid(rng, 2000, 1, 0.05))
	den := geom.RandomDensities(rng, 2000, 1)
	req := OneShotRequest{
		PlanRequest: PlanRequest{Src: pts, Kernel: kernels.Spec{Name: "laplace"}, Degree: 4},
		Densities:   den,
	}
	_, err = svc.EvaluateOnce(context.Background(), req)
	if !errors.Is(err, errs.ErrWorkerLost) {
		t.Fatalf("empty cluster returned %v, want worker_lost", err)
	}
	if status, _ := statusOf(err); status != 503 {
		t.Errorf("worker_lost maps to HTTP %d, want 503", status)
	}

	// Single-node serving stays up: the same geometry below the
	// threshold evaluates locally.
	small := req
	small.Src = pts[:3*500]
	small.Densities = den[:500]
	if _, err := svc.EvaluateOnce(context.Background(), small); err != nil {
		t.Fatalf("degraded mode broke local serving: %v", err)
	}
}
