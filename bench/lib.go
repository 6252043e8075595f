package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"

	kifmm "repro"
	"repro/internal/fmm"
)

// libWorkload drives the library path: one prepared kifmm.Evaluator, one
// caller evaluating density vectors against it in a closed loop.
type libWorkload struct {
	n         int
	gen       func(rng *rand.Rand, n int) []float64
	kernel    kifmm.Kernel
	degree    int
	maxPoints int
	// batch is the right-hand sides per main operation: 1 runs
	// EvaluateCtx, more runs EvaluateBatchCtx.
	batch int

	seed int64
	pts  []float64
	dens [][]float64

	pool    *kifmm.Pool
	ev      *kifmm.Evaluator
	first   [][]float64 // the first operation's result, the repeat reference
	buildS  float64
	firstS  float64
	waitsMu sync.Mutex
	waits   []float64 // lease waits seen by the pool observer
	granted []float64
}

func newLibWorkload(name string) *libWorkload {
	switch name {
	case "lib_uniform_fft":
		// 12 000 uniform points at s=60 fill level 3 (512 leaves of ~23
		// points) and no deeper: the same box population per leaf as
		// N=100 000 one level down, at an eighth of the time per
		// operation, and far from the occupancy where leaves start to
		// split, so the tree does not change shape with the seed.
		return &libWorkload{n: 12000, gen: genUniform, kernel: kifmm.Laplace(), degree: 6, maxPoints: 60, batch: 1}
	case "lib_adaptive_direct":
		// 24 000 points keep the depth-22 tree of the paper's clustered
		// set at ~0.25 s per operation on one lane, so a run collects ~30
		// samples; at this size the V lists are empty and the time is all
		// direct kernel work (U, W, X) and the two leaf passes.
		return &libWorkload{n: 24000, gen: func(rng *rand.Rand, n int) []float64 { return genCorners(rng, n, 0.1) },
			kernel: kifmm.Laplace(), degree: 6, maxPoints: 200, batch: 1}
	case "lib_stokes_batch":
		// Degree 5: the Stokes operators of degree 6 take ~9 s to build
		// here, and set-up is measured in five cold processes per run.
		return &libWorkload{n: 3000, gen: func(rng *rand.Rand, n int) []float64 { return genSphereGrid(rng, n, 2, 0.3) },
			kernel: kifmm.Stokes(1), degree: 5, maxPoints: 60, batch: 4}
	}
	return nil
}

func (w *libWorkload) generate(seed int64) {
	w.seed = seed
	rng := rand.New(rand.NewSource(seed))
	w.pts = w.gen(rng, w.n)
	for q := 0; q < max(w.batch, 4); q++ {
		w.dens = append(w.dens, genDensities(rng, w.n*w.kernel.SourceDim()))
	}
}

func (w *libWorkload) options(workers int) kifmm.Options {
	return kifmm.Options{Kernel: w.kernel, Degree: w.degree, MaxPoints: w.maxPoints, Workers: workers, Pool: w.pool}
}

// op is the main operation.
func (w *libWorkload) op(ctx context.Context) ([][]float64, error) {
	if w.batch == 1 {
		pot, err := w.ev.EvaluateCtx(ctx, w.dens[0])
		return [][]float64{pot}, err
	}
	return w.ev.EvaluateBatchCtx(ctx, w.dens[:w.batch])
}

func (w *libWorkload) setup(ctx context.Context) error {
	w.pool = kifmm.NewPool(0)
	start := time.Now()
	ev, err := kifmm.NewEvaluatorCtx(ctx, w.pts, w.pts, w.options(0))
	if err != nil {
		return err
	}
	w.buildS = time.Since(start).Seconds()
	w.ev = ev
	start = time.Now()
	w.first, err = w.op(ctx)
	w.firstS = time.Since(start).Seconds()
	return err
}

func (w *libWorkload) accuracy() (float64, error) {
	return accuracyDigits(w.seed, w.kernel, w.pts, w.dens[0], w.first[0])
}

func (w *libWorkload) same(res [][]float64) bool {
	if len(res) != len(w.first) {
		return false
	}
	for q := range res {
		if !bitsEqual(res[q], w.first[q]) {
			return false
		}
	}
	return true
}

// libWarmOps operations run before the timed phase: the first few
// evaluations of a process run at about half speed while the heap grows
// to its steady size.
const libWarmOps = 3

func (w *libWorkload) measure(ctx context.Context, d time.Duration) (measured, error) {
	var m measured
	for i := 0; i < libWarmOps; i++ {
		if _, err := w.op(ctx); err != nil {
			return m, err
		}
	}
	opPhase := d * 8 / 10
	runOps(&m, opPhase, w.n*w.batch, func() ([][]float64, error) { return w.op(ctx) }, w.same)

	// The write path of the library: preparing a plan for a geometry the
	// process has not seen (tree, lists, operator handles).
	rng := rand.New(rand.NewSource(w.seed + 1))
	start := time.Now()
	for len(m.registers) < 5 || time.Since(start) < d-opPhase {
		pts := w.gen(rng, w.n)
		t := time.Now()
		ev, err := kifmm.NewEvaluatorCtx(ctx, pts, pts, w.options(0))
		m.registers = append(m.registers, time.Since(t).Seconds())
		m.attempted++
		if err != nil {
			m.failed++
			continue
		}
		ev.Close()
	}
	m.registerP50 = median(m.registers)
	return m, nil
}

func (w *libWorkload) shape() shape {
	return shape{pts: w.pts, kernel: w.kernel, degree: w.degree, maxPoints: w.maxPoints, payload: w.dens[0]}
}

func (w *libWorkload) trace(ctx context.Context, d time.Duration, rec *recorder, layer map[string]float64) error {
	w.pool.SetAcquireObserver(func(wait time.Duration, granted int) {
		w.waitsMu.Lock()
		w.waits = append(w.waits, wait.Seconds())
		w.granted = append(w.granted, float64(granted))
		w.waitsMu.Unlock()
	})
	defer w.pool.SetAcquireObserver(nil)

	var plain []float64
	for i := 0; i < libWarmOps+5; i++ {
		t := time.Now()
		if _, err := w.op(ctx); err != nil {
			return err
		}
		if i >= libWarmOps {
			plain = append(plain, time.Since(t).Seconds())
		}
	}

	var walls []float64
	var stages []stageSample
	start := time.Now()
	for op := 0; time.Since(start) < d; op++ {
		root := rec.start("op", nil, op, 0)
		call := rec.start("fmm.evaluate", root, op, 0)
		_, st, tree, err := w.ev.EvaluateBatchTracedCtx(ctx, w.dens[:w.batch])
		call.end()
		root.end()
		if err != nil {
			return err
		}
		rec.graft(call, tree)
		walls = append(walls, call.dur().Seconds())
		stages = append(stages, stageFromStats(st))
	}
	p50 := median(walls)
	fillStages(layer, stages, walls)
	for _, pass := range []string{"permute", "up", "down", "leaf"} {
		layer["fmm.pass_"+pass+"_wall_s"] = median(rec.durations(pass))
	}
	layer["fmm.build_s"] = w.buildS
	layer["fmm.first_eval_extra_s"] = w.firstS - p50
	layer["fmm.plan_footprint_mb"] = float64(w.ev.FootprintBytes()) / 1e6
	layer["run.op_p90_s"] = percentile(walls, 0.9)
	layer["run.trace_overhead"] = p50 / median(plain)

	// The other batch width on the same plan: nq singles against one
	// batch of nq.
	const nq = 4
	var other []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		var err error
		if w.batch == 1 {
			_, err = w.ev.EvaluateBatchCtx(ctx, w.dens[:nq])
		} else {
			_, err = w.ev.EvaluateCtx(ctx, w.dens[0])
		}
		if err != nil {
			return err
		}
		other = append(other, time.Since(t).Seconds())
	}
	single, batched := median(plain), median(other)
	if w.batch > 1 {
		single, batched = median(other), median(plain)
	}
	layer["fmm.batch_amortization"] = nq * single / batched

	w.waitsMu.Lock()
	layer["exec.lease_wait_mean_s"] = mean(w.waits)
	layer["exec.granted_lanes_mean"] = mean(w.granted)
	w.waitsMu.Unlock()

	speedup, err := w.laneSpeedup(ctx)
	layer["exec.lane_speedup"] = speedup
	return err
}

// laneSpeedup is what every core of the machine buys over the plain
// single-threaded baseline: the same plan at one lane against one lane
// per core. The run itself leaves a core free (benchLanes), so GOMAXPROCS
// is raised for these few operations only.
func (w *libWorkload) laneSpeedup(ctx context.Context) (float64, error) {
	cores := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(cores))
	p50 := func(lanes int) (float64, error) {
		opt := w.options(lanes)
		opt.Pool = kifmm.NewPool(lanes)
		ev, err := kifmm.NewEvaluatorCtx(ctx, w.pts, w.pts, opt)
		if err != nil {
			return 0, err
		}
		defer ev.Close()
		// The first operations of a new lane run slow (its scratch is
		// allocated, its thread started), so they warm up like the run's.
		var walls []float64
		for i := 0; i < libWarmOps+3; i++ {
			t := time.Now()
			if _, err := ev.EvaluateBatchCtx(ctx, w.dens[:w.batch]); err != nil {
				return 0, err
			}
			if i >= libWarmOps {
				walls = append(walls, time.Since(t).Seconds())
			}
		}
		return median(walls), nil
	}
	serial, err := p50(1)
	if err != nil {
		return 0, err
	}
	wide, err := p50(cores)
	if err != nil {
		return 0, err
	}
	return serial / wide, nil
}

func (w *libWorkload) close() {
	if w.ev != nil {
		w.ev.Close()
	}
}

// stageSample is one operation's stage breakdown, from fmm.Stats on the
// library path or service.EvalStats over the wire.
type stageSample struct {
	up, downU, downV, downW, downX, eval, total float64 // aggregate compute seconds
	flops                                       int64
	lanes                                       int
}

func stageFromStats(s fmm.Stats) stageSample {
	return stageSample{
		up: s.Up.Seconds(), downU: s.DownU.Seconds(), downV: s.DownV.Seconds(),
		downW: s.DownW.Seconds(), downX: s.DownX.Seconds(), eval: s.Eval.Seconds(),
		total: s.Total().Seconds(), flops: s.Flops(), lanes: s.Lanes,
	}
}

// fillStages derives the fmm stage metrics from per-operation stage
// samples and wall times: medians of the aggregate compute per stage,
// the exact flop count, the achieved rate and the share of lane time
// spent computing (the rest is barriers, permutation and scheduling).
func fillStages(layer map[string]float64, stages []stageSample, walls []float64) {
	if len(stages) == 0 {
		return
	}
	col := func(f func(stageSample) float64) float64 {
		xs := make([]float64, len(stages))
		for i, st := range stages {
			xs[i] = f(st)
		}
		return median(xs)
	}
	layer["fmm.up_s"] = col(func(s stageSample) float64 { return s.up })
	layer["fmm.down_u_s"] = col(func(s stageSample) float64 { return s.downU })
	layer["fmm.down_v_s"] = col(func(s stageSample) float64 { return s.downV })
	layer["fmm.down_w_s"] = col(func(s stageSample) float64 { return s.downW })
	layer["fmm.down_x_s"] = col(func(s stageSample) float64 { return s.downX })
	layer["fmm.eval_s"] = col(func(s stageSample) float64 { return s.eval })
	layer["fmm.flops_per_op"] = float64(stages[0].flops)
	eff := make([]float64, len(stages))
	rate := make([]float64, len(stages))
	for i, st := range stages {
		eff[i] = st.total / (float64(max(st.lanes, 1)) * walls[i])
		rate[i] = float64(st.flops) / 1e9 / walls[i]
	}
	layer["fmm.lane_efficiency"] = median(eff)
	layer["fmm.gflops_per_s"] = median(rate)
}
