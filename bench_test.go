// Benchmarks regenerating the paper's evaluation artifacts. Each paper
// table and figure has a bench target (see DESIGN.md for the index):
//
//	Table 4.1 / Figure 4.2: BenchmarkTable41* (fixed-size scalability)
//	Table 4.2 / Figure 4.3: BenchmarkTable42* (isogranular scalability)
//	Table 4.3:              BenchmarkTable43  (largest runs, s=120)
//	footnote 5 ablation:    BenchmarkM2LBackend*
//
// The benches run scaled-down sweeps (the paper used up to 3000
// processors and 700M particles); custom metrics expose the shape
// quantities the paper reports: virtual seconds per interaction
// (T(P), "vsec/interaction"), parallel efficiency vs P=1 ("efficiency"),
// communication share ("comm-frac") and aggregate Mflop rates
// ("mflops"). cmd/kifmm-bench prints the full tables.
package kifmm

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/barneshut"
	"repro/internal/fmm"
	"repro/internal/harness"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/parfmm"
)

// benchSweep runs one scalability sweep and reports paper-shaped metrics.
func benchSweep(b *testing.B, cfg harness.Config, iso bool) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var rows []harness.Row
		var err error
		if iso {
			rows, err = harness.Isogranular(cfg)
		} else {
			rows, err = harness.FixedSize(cfg)
		}
		if err != nil {
			b.Fatal(err)
		}
		last := rows[len(rows)-1]
		first := rows[0]
		b.ReportMetric(last.MaxTotal.Seconds(), "vsec/interaction")
		b.ReportMetric(last.AvgGF*1e3, "mflops")
		if last.Total > 0 {
			b.ReportMetric(last.Comm.Seconds()/last.Total.Seconds(), "comm-frac")
		}
		if !iso && first.P == 1 && last.Total > 0 {
			eff := first.Total.Seconds() / (float64(last.P) * last.Total.Seconds())
			b.ReportMetric(eff, "efficiency")
		}
		b.ReportMetric(last.Ratio, "load-ratio")
	}
}

// Fixed-size scalability (Table 4.1, Figure 4.2), one bench per kernel
// row of the table.

func BenchmarkTable41Laplace(b *testing.B) {
	benchSweep(b, harness.Config{
		Kernel: kernels.Laplace{}, Distribution: "spheres",
		N: 8000, Procs: []int{1, 4, 8},
	}, false)
}

func BenchmarkTable41ModLaplace(b *testing.B) {
	benchSweep(b, harness.Config{
		Kernel: kernels.NewModLaplace(1), Distribution: "spheres",
		N: 8000, Procs: []int{1, 4, 8},
	}, false)
}

func BenchmarkTable41Stokes(b *testing.B) {
	benchSweep(b, harness.Config{
		Kernel: kernels.NewStokes(1), Distribution: "corners",
		N: 5000, Procs: []int{1, 4, 8},
	}, false)
}

// BenchmarkFig42Stages reports the per-stage split of the fixed-size
// study (the stacked bars of Figure 4.2).
func BenchmarkFig42Stages(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := harness.FixedSize(harness.Config{
			Kernel: kernels.Laplace{}, Distribution: "spheres",
			N: 8000, Procs: []int{4},
		})
		if err != nil {
			b.Fatal(err)
		}
		s := rows[0].Stage
		total := s.Total().Seconds()
		if total > 0 {
			b.ReportMetric(s.Up.Seconds()/total, "up-frac")
			b.ReportMetric(s.DownU.Seconds()/total, "downU-frac")
			b.ReportMetric(s.DownV.Seconds()/total, "downV-frac")
			b.ReportMetric((s.DownW.Seconds()+s.DownX.Seconds())/total, "downWX-frac")
			b.ReportMetric(s.Eval.Seconds()/total, "eval-frac")
		}
	}
}

// Isogranular scalability (Table 4.2, Figure 4.3).

func BenchmarkTable42LaplaceUniform(b *testing.B) {
	benchSweep(b, harness.Config{
		Kernel: kernels.Laplace{}, Distribution: "spheres",
		Grain: 1000, Procs: []int{1, 2, 4, 8},
	}, true)
}

func BenchmarkTable42StokesUniform(b *testing.B) {
	benchSweep(b, harness.Config{
		Kernel: kernels.NewStokes(1), Distribution: "spheres",
		Grain: 600, Procs: []int{1, 2, 4},
	}, true)
}

func BenchmarkTable42StokesNonUniform(b *testing.B) {
	benchSweep(b, harness.Config{
		Kernel: kernels.NewStokes(1), Distribution: "corners",
		Grain: 600, Procs: []int{1, 2, 4},
	}, true)
}

// BenchmarkFig43Stages reports the isogranular stage split (Figure 4.3).
func BenchmarkFig43Stages(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := harness.Isogranular(harness.Config{
			Kernel: kernels.Laplace{}, Distribution: "spheres",
			Grain: 1000, Procs: []int{8},
		})
		if err != nil {
			b.Fatal(err)
		}
		s := rows[0].Stage
		total := s.Total().Seconds()
		if total > 0 {
			b.ReportMetric(s.DownV.Seconds()/total, "downV-frac")
			b.ReportMetric(s.DownU.Seconds()/total, "downU-frac")
		}
	}
}

// BenchmarkTable43 runs the "largest runs" configuration (s = 120).
func BenchmarkTable43(b *testing.B) {
	benchSweep(b, harness.Config{
		Kernel: kernels.Laplace{}, Distribution: "spheres",
		N: 12000, Procs: []int{16}, MaxPoints: 120,
	}, false)
}

// M2L backend ablation (paper footnote 5): same accuracy, different
// work/flop-rate trade-off.

func benchM2L(b *testing.B, backend fmm.M2LBackend) {
	patches := SpherePatches(1, 8000, 8, 0.1)
	pts := FlattenPatches(patches)
	den := RandomDensities(2, 8000, 1)
	ev, err := NewEvaluator(pts, pts, Options{
		Kernel: Laplace(), Degree: 6, MaxPoints: 60, Backend: backend, Workers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ev.Evaluate(den); err != nil { // warm the operator caches
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(den); err != nil {
			b.Fatal(err)
		}
	}
	s := ev.Stats()
	if s.DownV > 0 {
		b.ReportMetric(s.DownV.Seconds(), "downV-sec")
	}
}

func BenchmarkM2LBackendFFT(b *testing.B)   { benchM2L(b, fmm.M2LFFT) }
func BenchmarkM2LBackendDense(b *testing.B) { benchM2L(b, fmm.M2LDense) }

// BenchmarkWorkersSweep measures one interaction evaluation at N≈20k
// under increasing shared-memory fan-out — the real-hardware speedup
// the simulated-MPI tables model. Compare ns/op across the
// sub-benchmarks; the acceptance bar is >1.5x from workers=1 to
// workers=4 on CI-class hardware.
func BenchmarkWorkersSweep(b *testing.B) {
	const n = 20000
	patches := SpherePatches(1, n, 8, 0.1)
	pts := FlattenPatches(patches)
	den := RandomDensities(2, n, 1)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ev, err := NewEvaluator(pts, pts, Options{
				Kernel: Laplace(), Degree: 6, MaxPoints: 60, Workers: workers,
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := ev.Evaluate(den); err != nil { // warm the operator caches
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ev.Evaluate(den); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkElasticIdleFanout is the scheduler's acceptance benchmark:
// one evaluation on an otherwise idle server, compared between the old
// static throughput split (every call at width 1, the previous
// -eval-workers default) and the elastic pool granting the lone call
// the whole machine. On multi-core hardware "elastic" must beat
// "static1"; on a single core the two must coincide to within the
// lease bookkeeping (~µs per call) — which is also what CI's one-shot
// smoke run guards: a scheduling regression shows up here first.
func BenchmarkElasticIdleFanout(b *testing.B) {
	const n = 20000
	patches := SpherePatches(1, n, 8, 0.1)
	pts := FlattenPatches(patches)
	den := RandomDensities(2, n, 1)
	run := func(b *testing.B, workers int) {
		b.Helper()
		// A fresh full-width pool per sub-benchmark: idle, so the grant
		// equals the requested ceiling.
		ev, err := NewEvaluator(pts, pts, Options{
			Kernel: Laplace(), Degree: 6, MaxPoints: 60,
			Workers: workers, Pool: NewPool(0),
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ev.Evaluate(den); err != nil { // warm the operator caches
			b.Fatal(err)
		}
		b.ResetTimer()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ev.Evaluate(den); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(ev.Stats().Lanes), "granted-lanes")
	}
	b.Run("static1", func(b *testing.B) { run(b, 1) })
	b.Run("elastic", func(b *testing.B) { run(b, 0) })
}

// BenchmarkEvaluateBatch measures the per-RHS cost of batched
// evaluation against repeated single evaluations: the batch pays tree
// traversal and near-field kernel evaluations once, so per-RHS ns/op
// must fall as the batch grows.
func BenchmarkEvaluateBatch(b *testing.B) {
	const n = 10000
	patches := SpherePatches(1, n, 4, 0.2)
	pts := FlattenPatches(patches)
	for _, nrhs := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("batch=%d", nrhs), func(b *testing.B) {
			ev, err := NewEvaluator(pts, pts, Options{Kernel: Laplace(), Degree: 6, MaxPoints: 60})
			if err != nil {
				b.Fatal(err)
			}
			dens := make([][]float64, nrhs)
			for q := range dens {
				dens[q] = RandomDensities(int64(3+q), n, 1)
			}
			if _, err := ev.EvaluateBatchCtx(context.Background(), dens); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ev.EvaluateBatchCtx(context.Background(), dens); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			elapsed := b.Elapsed()
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N)/float64(nrhs), "ns/rhs")
		})
	}
}

// BenchmarkSequentialEvaluate measures one sequential interaction
// evaluation per kernel (the paper's per-particle cycle counts:
// observation (1) of the Discussion). Workers is pinned to 1 so the
// numbers keep their single-core meaning.
func benchSequential(b *testing.B, k Kernel, n int) {
	patches := SpherePatches(1, n, 4, 0.2)
	pts := FlattenPatches(patches)
	den := RandomDensities(2, n, k.SourceDim())
	ev, err := NewEvaluator(pts, pts, Options{Kernel: k, Degree: 6, MaxPoints: 60, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ev.Evaluate(den); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ev.Evaluate(den); err != nil {
			b.Fatal(err)
		}
	}
	s := ev.Stats()
	b.ReportMetric(float64(s.Flops())/s.Total().Seconds()/1e6, "mflops")
	b.ReportMetric(s.Total().Seconds()*1e9/float64(n)/1e3, "kcycles/particle@1GHz")
}

func BenchmarkSequentialLaplace(b *testing.B) { benchSequential(b, Laplace(), 10000) }

// BenchmarkEvaluateCtxUncancelled is BenchmarkSequentialLaplace through
// the ctx-first entry point with a live (but never cancelled) context.
// Comparing it against BenchmarkSequentialLaplace measures the cost of
// the cancellation checks on the hot path — one atomic load per
// scheduling chunk, which must stay under 1% of an N=10k Laplace
// evaluation (the api_redesign acceptance bound).
func BenchmarkEvaluateCtxUncancelled(b *testing.B) {
	const n = 10000
	patches := SpherePatches(1, n, 4, 0.2)
	pts := FlattenPatches(patches)
	den := RandomDensities(2, n, 1)
	ev, err := NewEvaluator(pts, pts, Options{Kernel: Laplace(), Degree: 6, MaxPoints: 60, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := ev.EvaluateCtx(ctx, den); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ev.EvaluateCtx(ctx, den); err != nil {
			b.Fatal(err)
		}
	}
}
func BenchmarkSequentialModLaplace(b *testing.B) { benchSequential(b, ModLaplace(1), 10000) }
func BenchmarkSequentialStokes(b *testing.B)     { benchSequential(b, Stokes(1), 6000) }

// BenchmarkDirectBaseline measures the O(N²) reference at the same size
// as BenchmarkSequentialLaplace, demonstrating the FMM's algorithmic win.
func BenchmarkDirectBaseline(b *testing.B) {
	patches := SpherePatches(1, 10000, 4, 0.2)
	pts := FlattenPatches(patches)
	den := RandomDensities(2, 10000, 1)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Direct(Laplace(), pts, pts, den); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeConstruction measures the setup phase the paper's
// "Gen/Comm" column tracks.
func BenchmarkTreeConstruction(b *testing.B) {
	patches := SpherePatches(1, 50000, 8, 0.1)
	pts := FlattenPatches(patches)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewEvaluator(pts, pts, Options{Kernel: Laplace(), MaxPoints: 60}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParallelMachineSensitivity: the same run under a 10x slower
// interconnect — the comm fraction must grow (network model ablation).
func BenchmarkParallelMachineSensitivity(b *testing.B) {
	slow := mpi.DefaultMachine()
	slow.Bandwidth /= 10
	slow.Latency *= 10
	benchSweep(b, harness.Config{
		Kernel: kernels.Laplace{}, Distribution: "spheres",
		N: 8000, Procs: []int{8}, Machine: slow,
	}, false)
}

// BenchmarkTreecodeComparison reproduces the related-work claim the
// paper cites from Blelloch & Narlikar [3]: at matched (high) accuracy
// the FMM beats the Barnes-Hut treecode. Both use the same equivalent
// densities; only the interaction structure differs.
func BenchmarkTreecodeComparison(b *testing.B) {
	patches := SpherePatches(1, 12000, 4, 0.2)
	pts := FlattenPatches(patches)
	den := RandomDensities(2, 12000, 1)
	b.Run("fmm", func(b *testing.B) {
		ev, err := NewEvaluator(pts, pts, Options{Kernel: Laplace(), Degree: 6, MaxPoints: 60})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ev.Evaluate(den); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ev.Evaluate(den); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("barneshut", func(b *testing.B) {
		ev, err := barneshut.New(context.Background(), pts, barneshut.Options{
			Kernel: kernels.Laplace{}, Theta: 0.35, Degree: 6, MaxPoints: 60,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ev.Evaluate(den); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := ev.Evaluate(den); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLoadBalanceFeedback measures the work-estimate partitioning
// ablation (paper Discussion item 6).
func BenchmarkLoadBalanceFeedback(b *testing.B) {
	patches := CornerPatches(5, 6000, 0.3)
	den := RandomDensities(6, 6000, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		first, err := EvaluateParallel(patches, den, 8, ParallelOptions{
			Options: Options{Kernel: Laplace(), Degree: 6, MaxPoints: 60},
		})
		if err != nil {
			b.Fatal(err)
		}
		second, err := kifmmParallelWithWeights(patches, den, 8, first.PatchWork)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(first.Ratio(), "ratio-count")
		b.ReportMetric(second.Ratio(), "ratio-workfed")
	}
}

func kifmmParallelWithWeights(patches []Patch, den []float64, p int, weights []int64) (*ParallelResult, error) {
	return parfmm.Evaluate(patches, den, p, parfmm.Options{
		Kernel: Laplace(), Degree: 6, MaxPoints: 60, PatchWeights: weights,
	})
}
