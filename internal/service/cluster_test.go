package service

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// clusterService builds a coordinator with one worker of each lane count
// in lanes (two one-lane workers when none are given) and a Service that
// routes one-shot requests of >= minPoints sources to it.
func clusterService(t *testing.T, minPoints int, lanes ...int) (*Service, *cluster.Coordinator) {
	t.Helper()
	coord, err := cluster.StartCoordinator(context.Background(), "127.0.0.1:0", cluster.CoordinatorConfig{Heartbeat: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { coord.Close() })
	if len(lanes) == 0 {
		lanes = []int{1, 1}
	}
	for _, l := range lanes {
		w, err := cluster.StartWorker(context.Background(), cluster.WorkerConfig{Coordinator: coord.Addr(), Lanes: l})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
	}
	return New(Config{Cluster: coord, ClusterMinPoints: minPoints}), coord
}

// TestOneShotRoutesToCluster: a cluster-sized one-shot fans out over
// the workers and matches the local engine to near machine precision,
// while a sub-threshold request keeps the single-node plan path. The
// evaluation reports the lanes its ranks were granted: a two-lane and a
// one-lane worker run two ranks on three lanes.
func TestOneShotRoutesToCluster(t *testing.T) {
	svc, coord := clusterService(t, 4000, 2, 1)

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
	if st.GrantedLanes != 3 {
		t.Errorf("cluster eval granted %d lanes, want 3 (2 + 1)", st.GrantedLanes)
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

// TestClusterTraceNestsRankTrees: a cluster evaluation's recent-evals
// entry is one tree from the coordinator down to the passes — the
// cluster_evaluate root adopts each rank's own span tree, whose iteration
// holds the engine's pass spans and the four exchange spans, every
// interval inside its parent's — and ?trace_id= finds it whole.
func TestClusterTraceNestsRankTrees(t *testing.T) {
	req := cloudRequest(45, 300)
	svc, _ := clusterService(t, len(req.Src)/3)
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	caller := obs.NewTraceContext()
	tracedPost(t, ts.URL+"/v1/evaluate", OneShotRequest{PlanRequest: req, Densities: densitiesFor(req, 1)}, caller.Traceparent())

	recent := svc.RecentSpans(1)
	if len(recent) != 1 || recent[0].Name != "cluster_evaluate" {
		t.Fatalf("RecentSpans(1) = %+v, want one cluster_evaluate span", recent)
	}
	root := recent[0]
	var inside func(parent *obs.Span)
	inside = func(parent *obs.Span) {
		for _, c := range parent.Children {
			if c.Start.Before(parent.Start) || c.Start.Add(c.Duration).After(parent.Start.Add(parent.Duration)) {
				t.Errorf("%s [%v +%v] is not inside its parent %s [%v +%v]",
					c.Name, c.Start, c.Duration, parent.Name, parent.Start, parent.Duration)
			}
			inside(c)
		}
	}
	inside(root)
	if len(root.Children) != 2 || root.Attrs["ranks"] != "2" {
		t.Fatalf("cluster_evaluate has %d children, ranks=%q; want one child per rank of 2", len(root.Children), root.Attrs["ranks"])
	}
	for r, rk := range root.Children {
		if rk.Name != "rank" || rk.Attrs["rank"] != strconv.Itoa(r) {
			t.Fatalf("child %d = %s %v, want the rank span of rank %d", r, rk.Name, rk.Attrs, r)
		}
		if rk.Find("tree_build") == nil || rk.Find("assign_owners") == nil {
			t.Errorf("rank %d lacks its set-up spans", r)
		}
		it := rk.Find("iteration")
		if it == nil {
			t.Fatalf("rank %d has no iteration span", r)
		}
		for _, name := range []string{
			"source_gather", "up", "source_exchange", "density_gather", "density_exchange", "down", "leaf",
		} {
			if sp := it.Find(name); sp == nil || sp.Duration <= 0 {
				t.Errorf("rank %d iteration: span %q = %+v, want a closed span", r, name, sp)
			}
		}
		if it.Find("up").Find("level 2") == nil {
			t.Errorf("rank %d up pass has no per-level children", r)
		}
	}

	// The same tree over the wire, found by the caller's trace id.
	resp, err := http.Get(ts.URL + "/v1/evals/recent?trace_id=" + caller.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var found RecentEvalsResponse
	if err := json.NewDecoder(resp.Body).Decode(&found); err != nil {
		t.Fatal(err)
	}
	if len(found.Traces) != 1 || len(found.Traces[0].Children) != 2 || found.Traces[0].Find("density_exchange") == nil {
		t.Errorf("?trace_id= returned %+v, want the one stitched cluster_evaluate tree", found.Traces)
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
