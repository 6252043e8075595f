package harness

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/fmm"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// ClusterSmokeConfig shapes the cluster smoke run: a real-TCP loopback
// cluster (coordinator + workers, each with its own listener, all in
// one process tree) evaluates a Laplace problem and is checked against
// the single-node engine: smokeWorkers workers of smokeLanes lanes each,
// one rank per worker over its lane pool, over N sphere-grid points
// (0 = 12000, fixed seed).
type ClusterSmokeConfig struct {
	N int
}

const smokeWorkers, smokeLanes = 2, 2

// ClusterSmokeReport is the outcome of one cluster smoke run.
type ClusterSmokeReport struct {
	Config ClusterSmokeConfig
	// RelErr is the relative L2 error of the cluster result against the
	// single-node engine on the identical problem.
	RelErr float64
	Ranks  int
	// ScatterBytes/GatherBytes are the coordinator's control-plane
	// volumes; CommBytes/CommMsgs the rank-to-rank mesh traffic from
	// the merged real-transport timeline.
	ScatterBytes, GatherBytes int64
	CommBytes, CommMsgs       int64
	CriticalPathMS            float64
	Wall                      time.Duration
	Timeline                  *obs.Timeline
	Table                     string
}

// smokeTol is the conformance bound for the smoke run. At degree 4 the
// equivalent-surface pseudo-inverse is well conditioned and the
// distributed and single-node operator orderings agree to accumulation
// accuracy (~1e-15); see the cluster package's conformance test.
const smokeTol = 1e-12

// RunClusterSmoke boots the loopback cluster, runs one evaluation
// round-trip over real TCP, verifies it against the single-node engine
// and tears everything down. ctx bounds the whole run — node startup,
// the distributed evaluation and the single-node reference. A relative
// error above 1e-12 is an error, so CI fails loudly on a conformance
// break.
func RunClusterSmoke(ctx context.Context, cfg ClusterSmokeConfig) (*ClusterSmokeReport, error) {
	if cfg.N <= 0 {
		cfg.N = 12000
	}
	rng := rand.New(rand.NewSource(9))
	pts := geom.Flatten(geom.SphereGrid(rng, cfg.N, 2, 0.3))
	den := geom.RandomDensities(rng, cfg.N, 1)

	coord, err := cluster.StartCoordinator(ctx, "127.0.0.1:0", cluster.CoordinatorConfig{
		Heartbeat: 500 * time.Millisecond,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster smoke: coordinator: %w", err)
	}
	defer coord.Close()
	workers := make([]*cluster.Worker, 0, smokeWorkers)
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	for i := 0; i < smokeWorkers; i++ {
		w, err := cluster.StartWorker(ctx, cluster.WorkerConfig{
			Coordinator: coord.Addr(), Lanes: smokeLanes,
		})
		if err != nil {
			return nil, fmt.Errorf("cluster smoke: worker %d: %w", i, err)
		}
		workers = append(workers, w)
	}

	start := time.Now()
	pot, evalRep, err := coord.Evaluate(ctx, cluster.EvalRequest{
		Src: pts, Den: den, Kernel: kernels.Spec{Name: "laplace"},
		Degree: 4, MaxPoints: 60,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster smoke: evaluate: %w", err)
	}
	wall := time.Since(start)

	// Single-node reference on the identical problem and options.
	ev, err := fmm.NewCtx(ctx, pts, pts, fmm.Options{
		Kernel: kernels.Laplace{}, Degree: 4, MaxPoints: 60,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster smoke: reference build: %w", err)
	}
	defer ev.Close()
	refs, _, err := ev.Evaluate(ctx, [][]float64{den}, nil, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster smoke: reference evaluate: %w", err)
	}
	ref := refs[0]
	var num, den2 float64
	for i := range ref {
		d := pot[i] - ref[i]
		num += d * d
		den2 += ref[i] * ref[i]
	}
	relErr := math.Sqrt(num / den2)

	rep := &ClusterSmokeReport{
		Config:       cfg,
		RelErr:       relErr,
		Ranks:        evalRep.Ranks,
		ScatterBytes: evalRep.ScatterBytes,
		GatherBytes:  evalRep.GatherBytes,
		Wall:         wall,
		Timeline:     evalRep.Timeline,
	}
	if tl := evalRep.Timeline; tl != nil {
		rep.CommBytes = tl.TotalBytes()
		rep.CommMsgs = int64(tl.TotalMessages())
		rep.CriticalPathMS = obs.PathDuration(tl.CriticalPath()).Seconds() * 1e3
	}
	rep.Table = clusterSmokeTable(rep)
	if relErr > smokeTol {
		return rep, fmt.Errorf("cluster smoke: relative L2 error %g exceeds %g (cluster diverged from single node)", relErr, smokeTol)
	}
	return rep, nil
}

func clusterSmokeTable(rep *ClusterSmokeReport) string {
	var b strings.Builder
	cfg := rep.Config
	fmt.Fprintf(&b, "cluster smoke: %d ranks over TCP loopback, one per worker of %d lanes, N=%d\n",
		rep.Ranks, smokeLanes, cfg.N)
	fmt.Fprintf(&b, "round trip %s, rel L2 error vs single node %.3g (tolerance %g)\n",
		rep.Wall.Round(time.Millisecond), rep.RelErr, smokeTol)
	fmt.Fprintf(&b, "control plane: scatter %d B, gather %d B; mesh: %d msgs, %d B; critical path %.1fms\n",
		rep.ScatterBytes, rep.GatherBytes, rep.CommMsgs, rep.CommBytes, rep.CriticalPathMS)
	if rep.Timeline != nil {
		b.WriteByte('\n')
		writeLoads(&b, rep.Timeline)
	}
	return b.String()
}

// runClusterSmoke is the cluster-smoke experiment at its default shape.
func runClusterSmoke(ctx context.Context, _ Scale) (string, error) {
	rep, err := RunClusterSmoke(ctx, ClusterSmokeConfig{})
	if err != nil {
		return "", err
	}
	return rep.Table, nil
}
