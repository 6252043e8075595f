package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	kifmm "repro"
	"repro/client"
	"repro/internal/cluster"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/service"
)

// clusterWorkload is the paper's parallel algorithm on the real
// transport: a coordinator and two single-lane workers over TCP
// loopback, fronted by the HTTP service, one binary client sending
// one-shot evaluations in a closed loop. The ranks share the run's lanes
// (benchLanes: one on a 2-core machine), so an operation's wall time is
// the ranks' work plus their exchanges, not their parallel speed-up; the
// traced run reports the per-rank compute and the imbalance.
type clusterWorkload struct {
	seed int64
	pts  []float64
	den  []float64

	rec    *recorder // nil with tracing off
	httpTr *httpTrace

	coord   *cluster.Coordinator
	workers []*cluster.Worker
	svc     *service.Service
	front   *httpFront
	client  *client.Client

	first []float64
	fstS  float64
}

const (
	clusterPoints  = 12000
	clusterWorkers = 2
	clusterWarmOps = 3
	// clusterTol is the repeat check of the cluster path: ranks reduce in
	// arrival order, so results agree to rounding, not bitwise.
	clusterTol = 1e-12
)

func (w *clusterWorkload) generate(seed int64) {
	w.seed = seed
	rng := rand.New(rand.NewSource(seed))
	w.pts = genSphereGrid(rng, clusterPoints, 2, 0.3)
	w.den = genDensities(rng, clusterPoints)
}

func (w *clusterWorkload) planRequest(pts []float64) client.PlanRequest {
	return client.PlanRequest{Src: pts, Kernel: client.KernelSpec{Name: "laplace"}, Degree: 6}
}

func (w *clusterWorkload) setup(ctx context.Context) error {
	coord, err := cluster.StartCoordinator(ctx, "127.0.0.1:0", cluster.CoordinatorConfig{Heartbeat: 500 * time.Millisecond})
	if err != nil {
		return err
	}
	w.coord = coord
	for i := 0; i < clusterWorkers; i++ {
		wk, err := cluster.StartWorker(ctx, cluster.WorkerConfig{Coordinator: coord.Addr(), Lanes: 1})
		if err != nil {
			return err
		}
		w.workers = append(w.workers, wk)
	}
	for coord.Workers() < clusterWorkers {
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
	w.svc = service.New(service.Config{Cluster: coord})
	var handler http.Handler = service.NewServer(w.svc)
	if w.rec != nil {
		w.httpTr = newHTTPTrace(w.rec)
		handler = w.httpTr.wrap(handler)
	}
	if w.front, err = startHTTP(handler); err != nil {
		return err
	}
	w.client = client.New(w.front.base, client.WithRetry(client.RetryPolicy{}), client.WithBinary())
	start := time.Now()
	_, w.first, _, err = w.client.EvaluateOnce(ctx, w.planRequest(w.pts), w.den)
	w.fstS = time.Since(start).Seconds()
	return err
}

func (w *clusterWorkload) accuracy() (float64, error) {
	return accuracyDigits(w.seed, kifmm.Laplace(), w.pts, w.den, w.first)
}

func (w *clusterWorkload) measure(ctx context.Context, d time.Duration) (measured, error) {
	var m measured
	req := w.planRequest(w.pts)
	for i := 0; i < clusterWarmOps; i++ {
		if _, _, _, err := w.client.EvaluateOnce(ctx, req, w.den); err != nil {
			return m, err
		}
	}
	opPhase := d * 8 / 10
	runOps(&m, opPhase, clusterPoints, func() ([]float64, error) {
		_, pot, _, err := w.client.EvaluateOnce(ctx, req, w.den)
		return pot, err
	}, func(pot []float64) bool { return relL2(pot, w.first) <= clusterTol })

	// Plan endpoints stay on the coordinator's own engine: registering a
	// geometry it has not seen is the write path of this deployment.
	rng := rand.New(rand.NewSource(w.seed + 1))
	start := time.Now()
	for len(m.registers) < 5 || time.Since(start) < d-opPhase {
		pts := genSphereGrid(rng, clusterPoints, 2, 0.3)
		t := time.Now()
		info, err := w.client.RegisterPlan(ctx, w.planRequest(pts))
		m.registers = append(m.registers, time.Since(t).Seconds())
		m.attempted++
		if err != nil || info.Cached {
			m.failed++
		}
	}
	m.registerP50 = median(m.registers)
	return m, nil
}

func (w *clusterWorkload) shape() shape {
	payload := append(append([]float64(nil), w.pts...), w.den...)
	return shape{pts: w.pts, kernel: kifmm.Laplace(), degree: 6, maxPoints: 60, payload: payload}
}

func (w *clusterWorkload) trace(ctx context.Context, d time.Duration, rec *recorder, layer map[string]float64) error {
	req := w.planRequest(w.pts)
	var plain []float64
	for i := 0; i < clusterWarmOps+4; i++ {
		t := time.Now()
		if _, _, _, err := w.client.EvaluateOnce(ctx, req, w.den); err != nil {
			return err
		}
		if i >= clusterWarmOps {
			plain = append(plain, time.Since(t).Seconds())
		}
	}

	// Through the client: client span -> handler span -> the service's
	// cluster_evaluate span.
	var walls, clientSelf, handlerSelf []float64
	start := time.Now()
	for op := 0; time.Since(start) < d/2; op++ {
		sp, tctx := w.httpTr.begin(ctx, "client.evaluate_once", op, 0)
		_, pot, _, err := w.client.EvaluateOnce(tctx, req, w.den)
		sp.end()
		if err != nil {
			return err
		}
		if e := relL2(pot, w.first); e > clusterTol {
			return fmt.Errorf("traced run: result differs from the first by %.3g", e)
		}
		h := w.httpTr.handlers.wait(op)
		if recent := w.svc.RecentSpans(1); len(recent) == 1 {
			rec.graft(h, recent[0])
		}
		walls = append(walls, sp.dur().Seconds())
		clientSelf = append(clientSelf, rec.selfTime(sp).Seconds())
		handlerSelf = append(handlerSelf, rec.selfTime(h).Seconds())
	}
	layer["client.evaluate_overhead_frame_s"] = median(clientSelf)
	layer["service.handler_self_s"] = median(handlerSelf)
	layer["run.op_p90_s"] = percentile(walls, 0.9)
	layer["run.trace_overhead"] = median(walls) / median(plain)
	layer["fmm.first_eval_extra_s"] = w.fstS - median(plain)

	// Straight into the coordinator, for what its report carries: wall,
	// control-plane bytes and the merged per-rank timeline.
	var coordWall, critical, imbalance, busyMax []float64
	var scatter, gather, meshBytes, meshMsgs float64
	start = time.Now()
	for op := 1000; time.Since(start) < d/2; op++ {
		sp := rec.start("cluster.evaluate", nil, op, 1)
		pot, rep, err := w.coord.Evaluate(ctx, cluster.EvalRequest{
			Src: w.pts, Den: w.den, Kernel: kernels.Spec{Name: "laplace"}, Degree: 6,
		})
		sp.end()
		if err != nil {
			return err
		}
		if e := relL2(pot, w.first); e > clusterTol {
			return fmt.Errorf("traced run: coordinator result differs from the first by %.3g", e)
		}
		coordWall = append(coordWall, rep.Wall.Seconds())
		scatter, gather = float64(rep.ScatterBytes), float64(rep.GatherBytes)
		sp.Attrs = map[string]string{"ranks": strconv.Itoa(rep.Ranks), "workers": strconv.Itoa(rep.Workers)}
		if tl := rep.Timeline; tl != nil {
			meshBytes, meshMsgs = float64(tl.TotalBytes()), float64(tl.TotalMessages())
			critical = append(critical, obs.PathDuration(tl.CriticalPath()).Seconds())
			imbalance = append(imbalance, tl.ImbalanceRatio())
			var busy time.Duration
			for _, l := range tl.Loads() {
				busy = max(busy, l.Busy)
			}
			busyMax = append(busyMax, busy.Seconds())
		}
	}
	layer["cluster.coordinator_wall_s"] = median(coordWall)
	layer["cluster.scatter_bytes_per_op"] = scatter
	layer["cluster.gather_bytes_per_op"] = gather
	layer["cluster.mesh_bytes_per_op"] = meshBytes
	layer["cluster.mesh_msgs_per_op"] = meshMsgs
	layer["cluster.critical_path_s"] = median(critical)
	layer["parfmm.rank_imbalance"] = median(imbalance)
	layer["parfmm.rank_compute_max_s"] = median(busyMax)
	layer["exec.granted_lanes_mean"] = clusterWorkers

	// The same request through a service with no cluster behind it: the
	// plan is built once and cached, as a single node would serve it.
	local, err := startHTTP(service.NewServer(service.New(service.Config{})))
	if err != nil {
		return err
	}
	defer local.stop()
	lc := client.New(local.base, client.WithBinary())
	var localWalls []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		if _, _, _, err := lc.EvaluateOnce(ctx, req, w.den); err != nil {
			return err
		}
		if i > 0 {
			localWalls = append(localWalls, time.Since(t).Seconds())
		}
	}
	layer["cluster.vs_local_ratio"] = median(plain) / median(localWalls)
	return nil
}

func (w *clusterWorkload) close() {
	if w.front != nil {
		w.front.stop()
	}
	for _, wk := range w.workers {
		_ = wk.Close()
	}
	if w.coord != nil {
		_ = w.coord.Close()
	}
}
