package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	kifmm "repro"
	"repro/internal/errs"
	"repro/internal/fmm"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/parfmm"
	"repro/internal/wire"
)

func relErr(got, want []float64) float64 {
	num, den := 0.0, 0.0
	for i := range got {
		num += (got[i] - want[i]) * (got[i] - want[i])
		den += want[i] * want[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// checkGoroutines fails the test if the goroutine count has not settled
// back to the baseline (a small grace covers runtime bookkeeping).
func checkGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	t.Fatalf("goroutine leak: %d running, baseline %d\n%s", runtime.NumGoroutine(), base, buf[:n])
}

// TestCodecRoundTrips exercises the binary frame codec end to end: what
// the encoders produce, the decoders must reproduce exactly.
func TestCodecRoundTrips(t *testing.T) {
	hdr := &jobHeader{
		Job: 7, Size: 2, Rank: 1, Peers: []string{"a:1", "b:2"},
		Kernel: kernels.Spec{Name: "laplace"}, Degree: 6, MaxPoints: 60,
	}
	payload, err := encodeJobStart(hdr, &parfmm.RankInput{Pts: []float64{1, 2, 3}, Den: []float64{0.5}})
	if err != nil {
		t.Fatal(err)
	}
	gotHdr, gotIn, err := decodeJobStart(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotHdr.Job != 7 || gotHdr.Size != 2 || gotHdr.Rank != 1 || gotHdr.Peers[0] != "a:1" || gotHdr.Peers[1] != "b:2" {
		t.Fatalf("job header mangled: %+v", gotHdr)
	}
	if gotIn.Pts[2] != 3 || gotIn.Den[0] != 0.5 {
		t.Fatalf("rank input mangled: %+v", gotIn)
	}
	// An empty share (a rank with no points) is still one rank input.
	payload, err = encodeJobStart(hdr, &parfmm.RankInput{})
	if err != nil {
		t.Fatal(err)
	}
	if _, gotIn, err = decodeJobStart(payload); err != nil || len(gotIn.Pts) != 0 {
		t.Fatalf("empty rank input: %+v, %v", gotIn, err)
	}

	job, rr, err := decodeJobResult(encodeJobResult(7, rankResultWire{Rank: 1, Pot: []float64{1.5}, TL: []byte(`{"rank":1}`)}))
	if err != nil || job != 7 || rr.Rank != 1 || rr.Pot[0] != 1.5 || string(rr.TL) != `{"rank":1}` {
		t.Fatalf("job result mangled: %d %+v %v", job, rr, err)
	}

	p2p := &p2pMsg{Job: 7, Src: 1, Dst: 3, Tag: 42, SentNS: 12345, Data: []float64{1.5, -2.5}}
	got, err := decodeP2P(encodeP2P(p2p))
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != 1 || got.Dst != 3 || got.Tag != 42 || got.SentNS != 12345 || got.Data[1] != -2.5 {
		t.Fatalf("p2p mangled: %+v", got)
	}

	job, code, msg, err := decodeJobStatus(encodeJobStatus(7, "worker_lost", "gone"))
	if err != nil || job != 7 || code != "worker_lost" || msg != "gone" {
		t.Fatalf("job status mangled: %d %q %q %v", job, code, msg, err)
	}

	// Truncated payloads must error, not panic or mis-parse.
	if _, err := decodeP2P(encodeP2P(p2p)[:9]); err == nil {
		t.Fatal("truncated p2p payload decoded without error")
	}
}

// TestJobStartRejectsMalformedHeader: a job header off the socket whose
// rank is not one of its ranks, that has no ranks, or that does not name
// one mesh address per rank is malformed, whatever follows it.
func TestJobStartRejectsMalformedHeader(t *testing.T) {
	for _, tc := range []struct {
		name string
		hdr  jobHeader
	}{
		{"rank outside size", jobHeader{Size: 2, Rank: 2, Peers: []string{"a:1", "b:2"}}},
		{"no ranks", jobHeader{Size: 0, Rank: 0, Peers: []string{}}},
		{"peers not one per rank", jobHeader{Size: 2, Rank: 0, Peers: []string{"a:1"}}},
	} {
		payload, err := encodeJobStart(&tc.hdr, &parfmm.RankInput{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := decodeJobStart(payload); !errors.Is(err, wire.ErrMalformed) {
			t.Errorf("%s: decodeJobStart = %v, want a malformed-payload error", tc.name, err)
		}
	}
}

// startCluster brings up a coordinator and workers on loopback, each
// with its own listener, and tears everything down at test end.
func startCluster(t *testing.T, hb time.Duration, lanes ...int) (*Coordinator, []*Worker) {
	t.Helper()
	coord, err := StartCoordinator(context.Background(), "127.0.0.1:0", CoordinatorConfig{Heartbeat: hb})
	if err != nil {
		t.Fatal(err)
	}
	workers := make([]*Worker, len(lanes))
	for i, l := range lanes {
		w, err := StartWorker(context.Background(), WorkerConfig{Coordinator: coord.Addr(), Lanes: l})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	// Evaluate plans over registered workers; joins are synchronous in
	// StartWorker, so all are visible already.
	if got := coord.Workers(); got != len(lanes) {
		t.Fatalf("coordinator sees %d workers, want %d", got, len(lanes))
	}
	return coord, workers
}

// TestClusterMatchesSingleNode is the tentpole conformance check: a
// real-TCP loopback cluster (coordinator + 3 workers, one of them with two
// lanes, one rank each) must reproduce the single-node evaluator on a
// cluster-sized Laplace problem to accumulation accuracy, and the
// real-transport ledger must support the same timeline analyses as the
// simulated one. The two-lane rank's engine reads its ghost sources from
// both lanes.
func TestClusterMatchesSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster conformance is not a -short test")
	}
	base := runtime.NumGoroutine()
	const n = 20000
	rng := rand.New(rand.NewSource(3))
	pts := geom.Flatten(geom.SphereGrid(rng, n, 2, 0.3))
	den := geom.RandomDensities(rng, n, 1)

	coord, workers := startCluster(t, 500*time.Millisecond, 2, 1, 1)

	// Degree 4 keeps the equivalent-surface pseudo-inverse well enough
	// conditioned that the cluster and the single-node engine agree to
	// accumulation accuracy; at degree 6 the ~1e10 condition number
	// amplifies operator-application ordering into the ~1e-11 range.
	pot, report, err := coord.Evaluate(context.Background(), EvalRequest{
		Src: pts, Den: den,
		Kernel: kernels.Spec{Name: "laplace"}, Degree: 4, MaxPoints: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Ranks != 3 || report.Workers != 3 {
		t.Fatalf("report: %d ranks on %d workers, want 3 on 3", report.Ranks, report.Workers)
	}

	ev, err := kifmm.NewEvaluatorCtx(context.Background(), pts, pts, kifmm.Options{Kernel: kifmm.Laplace(), Degree: 4, MaxPoints: 60})
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	want, err := ev.EvaluateCtx(context.Background(), den)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(pot, want); e > 1e-12 {
		t.Errorf("cluster differs from single node by %v (want <= 1e-12)", e)
	}

	// The real-transport ledger feeds the same observability surfaces.
	tl := report.Timeline
	if tl == nil || len(tl.Ranks) != 3 {
		t.Fatalf("timeline: %+v, want 3 ranks", tl)
	}
	if tl.TotalMessages() == 0 || tl.TotalBytes() == 0 {
		t.Error("real-transport ledger recorded no messages")
	}
	if path := tl.CriticalPath(); len(path) == 0 {
		t.Error("critical path extraction produced no segments")
	}
	var trace bytes.Buffer
	if err := tl.WriteChromeTrace(&trace); err != nil || trace.Len() == 0 {
		t.Errorf("chrome trace: %v (%d bytes)", err, trace.Len())
	}
	if coord.ScatterBytes() == 0 || coord.GatherBytes() == 0 || coord.Evals() != 1 {
		t.Errorf("coordinator counters: scatter=%d gather=%d evals=%d",
			coord.ScatterBytes(), coord.GatherBytes(), coord.Evals())
	}
	// A report carries its own job's volumes, the coordinator the totals.
	_, second, err := coord.Evaluate(context.Background(), EvalRequest{
		Src: pts, Den: den,
		Kernel: kernels.Spec{Name: "laplace"}, Degree: 4, MaxPoints: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := report.GatherBytes + second.GatherBytes; got != coord.GatherBytes() {
		t.Errorf("per-job gather bytes %d + %d, coordinator total %d", report.GatherBytes, second.GatherBytes, coord.GatherBytes())
	}

	for _, w := range workers {
		w.Close()
	}
	coord.Close()
	checkGoroutines(t, base)
}

// TestClusterWorkerLost kills one worker mid-evaluation: the blocked
// Evaluate must resolve with the typed worker_lost error within two
// heartbeat intervals (no hang), nothing may leak, and the degraded
// coordinator must keep rejecting cluster requests crisply. Rank 0 roots
// every collective, so losing its worker is a case of its own.
func TestClusterWorkerLost(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster failure injection is not a -short test")
	}
	for _, victim := range []int{1, 0} {
		t.Run(fmt.Sprintf("rank_%d", victim), func(t *testing.T) { workerLost(t, victim) })
	}
}

// workerLost runs TestClusterWorkerLost on two workers, killing the one
// that hosts rank victim (ranks follow join order).
func workerLost(t *testing.T, victim int) {
	base := runtime.NumGoroutine()
	const hb = 250 * time.Millisecond
	const n = 16000
	rng := rand.New(rand.NewSource(4))
	pts := geom.Flatten(geom.SphereGrid(rng, n, 2, 0.3))
	den := geom.RandomDensities(rng, n, 1)

	coord, workers := startCluster(t, hb, 2, 2)

	computing := watchLanes(workers)
	errCh := make(chan error, 1)
	go func() {
		_, _, err := coord.Evaluate(context.Background(), EvalRequest{
			Src: pts, Den: den, Kernel: kernels.Spec{Name: "laplace"},
		})
		errCh <- err
	}()

	// Once both ranks compute, kill one worker hard (no drain — its
	// connections just die). Kill waits for the dying worker's rank to
	// unwind, which can take as long as an uncancellable operator build,
	// so it runs on its own goroutine: the clock below measures the
	// coordinator's detection, not the victim.
	awaitLanes(t, computing, errCh)
	killAt := time.Now()
	killed := make(chan struct{})
	go func() {
		workers[victim].Kill()
		close(killed)
	}()

	select {
	case err := <-errCh:
		if !errors.Is(err, errs.ErrWorkerLost) {
			t.Fatalf("evaluation after kill returned %v, want worker_lost", err)
		}
		if lat := time.Since(killAt); lat > 2*hb {
			t.Errorf("worker loss surfaced after %v, want <= 2 heartbeat intervals (%v)", lat, 2*hb)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("evaluation hung after worker kill")
	}
	if coord.WorkersLost() != 1 {
		t.Errorf("WorkersLost = %d, want 1", coord.WorkersLost())
	}

	// Degraded mode: with the survivors gone too, cluster-sized requests
	// fail fast with the same typed error instead of hanging.
	workers[1-victim].Close()
	_, _, err := coord.Evaluate(context.Background(), EvalRequest{
		Src: pts[:30], Den: den[:10], Kernel: kernels.Spec{Name: "laplace"},
	})
	if !errors.Is(err, errs.ErrWorkerLost) {
		t.Errorf("no-worker evaluation returned %v, want worker_lost", err)
	}

	<-killed
	coord.Close()
	checkGoroutines(t, base)
}

// watchLanes returns, per worker, a channel closed when the worker's
// rank takes its lanes. A rank's engine takes them once the tree is built
// and holds them to the end; from then on no rank can finish without its
// peers' exchanges.
func watchLanes(workers []*Worker) []chan struct{} {
	taken := make([]chan struct{}, len(workers))
	for i, w := range workers {
		taken[i] = make(chan struct{})
		var once sync.Once
		w.pool.SetAcquireObserver(func(time.Duration, int) { once.Do(func() { close(taken[i]) }) })
	}
	return taken
}

// awaitLanes waits until every rank holds its lanes, failing if the
// evaluation (whose result errCh carries) ends first.
func awaitLanes(t *testing.T, taken []chan struct{}, errCh <-chan error) {
	t.Helper()
	for _, ch := range taken {
		select {
		case <-ch:
		case err := <-errCh:
			t.Fatalf("evaluation returned %v before every rank computed", err)
		case <-time.After(10 * time.Second):
			t.Fatal("the ranks never took their lanes")
		}
	}
}

// TestWorkerLostReportWaitsForDrop: a rank that cannot reach its peer
// reports worker_lost, and that report can reach the coordinator before
// the coordinator sees the peer's connection drop. The job must then
// wait for the drop, so that a job failed worker_lost has counted its
// loss; with no drop at all the report fails the job within two
// heartbeat intervals. The reports are injected on a live worker's
// control connection while both ranks compute.
func TestWorkerLostReportWaitsForDrop(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster failure injection is not a -short test")
	}
	const hb = 250 * time.Millisecond
	rng := rand.New(rand.NewSource(4))
	pts := geom.Flatten(geom.SphereGrid(rng, 16000, 2, 0.3))
	den := geom.RandomDensities(rng, 16000, 1)
	for _, drop := range []bool{true, false} {
		t.Run(fmt.Sprintf("drop_%v", drop), func(t *testing.T) {
			coord, workers := startCluster(t, hb, 1, 1)
			defer coord.Close()
			computing := watchLanes(workers)
			errCh := make(chan error, 1)
			go func() {
				_, _, err := coord.Evaluate(context.Background(), EvalRequest{Src: pts, Den: den, Kernel: kernels.Spec{Name: "laplace"}})
				errCh <- err
			}()
			awaitLanes(t, computing, errCh)
			coord.mu.Lock()
			job := coord.nextJob
			coord.mu.Unlock()
			if err := workers[0].ctrl.writeFrame(fJobError, encodeJobStatus(job, string(errs.CodeWorkerLost), "rank 0 send to rank 1: unreachable")); err != nil {
				t.Fatal(err)
			}
			reported := time.Now()
			select {
			case err := <-errCh:
				t.Fatalf("the job failed (%v) on the report alone, %v after it; WorkersLost = %d", err, time.Since(reported), coord.WorkersLost())
			case <-time.After(hb / 2):
			}
			if drop {
				go workers[1].Kill()
			}
			select {
			case err := <-errCh:
				if !errors.Is(err, errs.ErrWorkerLost) {
					t.Fatalf("evaluation returned %v, want worker_lost", err)
				}
				if lat := time.Since(reported); lat > 3*hb {
					t.Errorf("the job failed %v after the report, want two heartbeat intervals and some slack, <= %v", lat, 3*hb)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("evaluation hung after the report")
			}
			if want := map[bool]int64{true: 1, false: 0}[drop]; coord.WorkersLost() != want {
				t.Errorf("WorkersLost = %d, want %d", coord.WorkersLost(), want)
			}
			workers[0].Kill()
			workers[1].Kill()
		})
	}
}

// TestClusterAbortOvertakingStart: a worker lost mid-scatter fails the
// job, and the abort can reach a later rank's worker before that rank's
// job start does. The rank the start then launches must unwind at once,
// not wait for a collective nobody will answer while holding its
// worker's lanes.
func TestClusterAbortOvertakingStart(t *testing.T) {
	coord, workers := startCluster(t, 250*time.Millisecond, 1, 1)
	defer coord.Close()
	w := workers[1]
	coord.mu.Lock()
	wc := coord.workers[w.ID()]
	coord.mu.Unlock()

	const job = 1 << 40 // not one of the coordinator's
	hdr := &jobHeader{Job: job, Size: 2, Rank: 1, Peers: []string{workers[0].Addr(), w.Addr()}, Kernel: kernels.Spec{Name: "laplace"}}
	start, err := encodeJobStart(hdr, &parfmm.RankInput{Pts: []float64{1, 0, 0}, Den: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := wc.fc.writeFrame(fJobAbort, encodeJobStatus(job, string(errs.CodeWorkerLost), "gone")); err != nil {
		t.Fatal(err)
	}
	if err := wc.fc.writeFrame(fJobStart, start); err != nil {
		t.Fatal(err)
	}
	// A job's runner retires its id when the rank ends.
	retired := func() bool {
		w.mu.Lock()
		defer w.mu.Unlock()
		return slices.Contains(w.done, job)
	}
	for deadline := time.Now().Add(5 * time.Second); !retired(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			for _, w := range workers {
				w.Kill() // unwinds the stuck rank
			}
			t.Fatal("the rank of an aborted job is still running")
		}
	}
	for _, w := range workers {
		w.Close()
	}
}

// TestClusterLanesDoNotChangeResult: a worker's lanes are its rank's
// engine width, not more ranks. Two one-lane and two two-lane workers run
// the same two ranks on the same partition, and the engine is
// width-deterministic, so the potentials are the same bits.
func TestClusterLanesDoNotChangeResult(t *testing.T) {
	const n = 4000
	rng := rand.New(rand.NewSource(8))
	req := EvalRequest{
		Src: geom.Flatten(geom.SphereGrid(rng, n, 2, 0.3)), Den: geom.RandomDensities(rng, n, 1),
		Kernel: kernels.Spec{Name: "laplace"}, Degree: 4, MaxPoints: 60,
	}
	var pots [][]float64
	for _, lanes := range [][]int{{1, 1}, {2, 2}} {
		coord, workers := startCluster(t, 250*time.Millisecond, lanes...)
		pot, rep, err := coord.Evaluate(context.Background(), req)
		for _, w := range workers {
			w.Close()
		}
		coord.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Ranks != 2 {
			t.Fatalf("workers of %v lanes ran %d ranks, want 2", lanes, rep.Ranks)
		}
		pots = append(pots, pot)
	}
	for i := range pots[0] {
		if math.Float64bits(pots[0][i]) != math.Float64bits(pots[1][i]) {
			t.Fatalf("potential %d: %v on one-lane workers, %v on two-lane ones", i, pots[0][i], pots[1][i])
		}
	}
}

// TestClusterWorkerReusesWorkspace: a worker keeps one lane pool across
// jobs, and a rank engine's workspace belongs to that pool, not to the
// engine. So each job after the first runs in the workspace an earlier
// job left there, even over a different point set: a worker makes one
// workspace in all. The count is the pool's own tally of workspaces made.
func TestClusterWorkerReusesWorkspace(t *testing.T) {
	coord, workers := startCluster(t, 250*time.Millisecond, 1, 1)
	defer coord.Close()
	for _, w := range workers {
		defer w.Close()
	}
	for job, n := range []int{3000, 2000, 3000} {
		rng := rand.New(rand.NewSource(int64(50 + job)))
		_, _, err := coord.Evaluate(context.Background(), EvalRequest{
			Src: geom.Flatten(geom.SphereGrid(rng, n, 2, 0.3)), Den: geom.RandomDensities(rng, n, 1),
			Kernel: kernels.Spec{Name: "laplace"}, Degree: 4, MaxPoints: 60,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range workers {
			if out, spare, made := w.pool.SpareCounts(); out != 0 || spare != 1 || made != 1 {
				t.Errorf("after job %d, worker %d's pool has %d workspaces out, %d spare, %d made; want 0, 1, 1", job+1, i, out, spare, made)
			}
		}
	}
}

// TestClusterFewerPointsThanWorkers: a job has no more ranks than points.
// Two Laplace points at distance 1 on three workers run as two ranks of
// one point each, and each potential is 1/(4π).
func TestClusterFewerPointsThanWorkers(t *testing.T) {
	coord, workers := startCluster(t, 250*time.Millisecond, 1, 1, 1)
	defer coord.Close()
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	pot, rep, err := coord.Evaluate(context.Background(), EvalRequest{
		Src: []float64{0, 0, 0, 1, 0, 0}, Den: []float64{1, 1}, Kernel: kernels.Spec{Name: "laplace"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranks != 2 || rep.Workers != 2 {
		t.Errorf("two points ran as %d ranks on %d workers, want 2 on 2", rep.Ranks, rep.Workers)
	}
	for i, p := range pot {
		if want := 1 / (4 * math.Pi); math.Abs(p-want) > 1e-15 {
			t.Errorf("potential %d = %v, want 1/(4π) = %v", i, p, want)
		}
	}
}

// TestClusterDrainExcludesWorker: after a graceful drain the departed
// worker no longer receives work, is not counted as lost, and the rest
// of the cluster keeps serving.
func TestClusterDrainExcludesWorker(t *testing.T) {
	coord, workers := startCluster(t, 250*time.Millisecond, 1, 1)
	defer coord.Close()

	n := 600
	rng := rand.New(rand.NewSource(5))
	pts := geom.Flatten(geom.SphereGrid(rng, n, 1, 0.3))
	den := geom.RandomDensities(rng, n, 1)

	workers[1].Close()
	for deadline := time.Now().Add(5 * time.Second); coord.Workers() != 1; {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator still sees %d workers after drain", coord.Workers())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if coord.WorkersLost() != 0 {
		t.Errorf("graceful drain counted as loss: WorkersLost = %d", coord.WorkersLost())
	}
	pot, report, err := coord.Evaluate(context.Background(), EvalRequest{
		Src: pts, Den: den, Kernel: kernels.Spec{Name: "laplace"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if report.Workers != 1 || report.Ranks != 1 {
		t.Errorf("drained worker still scheduled: %d workers, %d ranks", report.Workers, report.Ranks)
	}
	if len(pot) != n {
		t.Errorf("potential length %d, want %d", len(pot), n)
	}
	workers[0].Close()
}

// TestClusterAbortStopsRankCompute: a job aborted in the middle of a pass
// must stop computing, not run to its next receive. A single one-lane
// worker makes the whole job one rank that never waits on a peer, so only
// the cancelled context can end it early: the runner must be gone and its
// lanes returned within a fraction of a full evaluation, and the
// coordinator must still answer with the caller's typed error.
func TestClusterAbortStopsRankCompute(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster failure injection is not a -short test")
	}
	base := runtime.NumGoroutine()
	const n = 80000
	rng := rand.New(rand.NewSource(6))
	req := EvalRequest{
		Src: geom.Flatten(geom.SphereGrid(rng, n, 2, 0.3)), Den: geom.RandomDensities(rng, n, 1),
		Kernel: kernels.Spec{Name: "laplace"},
	}
	coord, workers := startCluster(t, 500*time.Millisecond, 1)
	w := workers[0]

	// Two full evaluations: the first builds the operators, the second is
	// what an evaluation costs from then on.
	var full time.Duration
	for i := 0; i < 2; i++ {
		start := time.Now()
		if _, _, err := coord.Evaluate(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		full = time.Since(start)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, _, err := coord.Evaluate(ctx, req)
		errCh <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); w.pool.LanesInUse() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("job never reached the worker's pool")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(full / 5)
	cancel()
	abortAt := time.Now()

	if err := <-errCh; !errors.Is(err, errs.ErrCanceled) {
		t.Errorf("aborted evaluation returned %v, want canceled", err)
	}
	gone := make(chan struct{})
	go func() {
		w.jobWG.Wait()
		close(gone)
	}()
	bound := full / 4
	select {
	case <-gone:
		t.Logf("full evaluation %v, rank compute stopped %v after the abort", full, time.Since(abortAt))
	case <-time.After(bound):
		t.Fatalf("job runner still computing %v after the abort (a full evaluation takes %v)", bound, full)
	}
	if in := w.pool.LanesInUse(); in != 0 {
		t.Errorf("worker pool still has %d lanes in use after the abort", in)
	}

	w.Close()
	coord.Close()
	checkGoroutines(t, base)
}

// TestClusterBadDegreeIsInvalidInput: an option no rank can build
// operators for is rejected by every rank before its first collective and
// reaches the caller as invalid_input, not as a recovered rank panic or a
// job that never resolves.
func TestClusterBadDegreeIsInvalidInput(t *testing.T) {
	coord, workers := startCluster(t, 250*time.Millisecond, 2, 2)
	defer coord.Close()
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	const n = 400
	rng := rand.New(rand.NewSource(7))
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, _, err := coord.Evaluate(ctx, EvalRequest{
		Src: geom.Flatten(geom.SphereGrid(rng, n, 1, 0.3)), Den: geom.RandomDensities(rng, n, 1),
		Kernel: kernels.Spec{Name: "laplace"}, Degree: -1,
	})
	if code, _ := errs.CodeOf(err); code != errs.CodeInvalidInput {
		t.Errorf("degree -1 on the cluster path: %v, want invalid_input", err)
	}
}

// TestExchangeMsgsCountSends: on both transports, the msgs attributes of
// a rank's exchange spans add up to the sends in its ledger. A receive or
// a collective is not a message, on the wire as in the simulation.
func TestExchangeMsgsCountSends(t *testing.T) {
	const n = 2000
	exchangeSpans := map[string]bool{
		"source_gather": true, "source_exchange": true, "density_gather": true, "density_exchange": true,
	}
	rng := rand.New(rand.NewSource(21))
	patches := geom.SphereGrid(rng, n, 2, 0.3)
	den := geom.RandomDensities(rng, n, 1)

	coord, workers := startCluster(t, 250*time.Millisecond, 1, 1)
	defer coord.Close()
	defer func() {
		for _, w := range workers {
			w.Close()
		}
	}()
	_, rep, err := coord.Evaluate(context.Background(), EvalRequest{
		Src: geom.Flatten(patches), Den: den, Kernel: kernels.Spec{Name: "laplace"}, Degree: 4, MaxPoints: 60,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := parfmm.Evaluate(patches, den, 2, parfmm.Options{
		Options: fmm.Options{Kernel: kernels.Laplace{}, Degree: 4, MaxPoints: 60}, Trace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range []struct {
		name string
		tl   *obs.Timeline
	}{{"tcp", rep.Timeline}, {"simulated", sim.Timeline}} {
		for _, rt := range run.tl.Ranks {
			var msgs int64
			var walk func(s *obs.Span)
			walk = func(s *obs.Span) {
				if exchangeSpans[s.Name] {
					v, err := strconv.ParseInt(s.Attrs["msgs"], 10, 64)
					if err != nil {
						t.Errorf("%s rank %d %s: msgs attribute %q", run.name, rt.Rank, s.Name, s.Attrs["msgs"])
					}
					msgs += v
				}
				for _, ch := range s.Children {
					walk(ch)
				}
			}
			walk(rt.Root)
			var sends int64
			for _, ev := range rt.Msgs {
				if ev.Kind == mpi.EventSend {
					sends++
				}
			}
			if sends == 0 || msgs != sends {
				t.Errorf("%s rank %d: exchange spans count %d msgs, the ledger %d sends", run.name, rt.Rank, msgs, sends)
			}
		}
	}
}
