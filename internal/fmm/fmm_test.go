package fmm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/direct"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/kernels"
)

// bg is the context of every test that exercises no cancellation.
var bg = context.Background()

// eval runs the engine's one entry on a single density vector — the batch
// of one every single-vector caller means.
func eval(ctx context.Context, e *Evaluator, den []float64) ([]float64, Stats, error) {
	pots, st, err := e.Evaluate(ctx, [][]float64{den}, nil, nil)
	if err != nil {
		return nil, st, err
	}
	return pots[0], st, nil
}

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

func checkAgainstDirect(t *testing.T, k kernels.Kernel, src, trg []float64, opt Options, tol float64) float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	den := geom.RandomDensities(rng, len(src)/3, k.SourceDim())
	opt.Kernel = k
	e, err := NewCtx(bg, src, trg, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := eval(bg, e, den)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Evaluate(k, trg, src, den)
	if err != nil {
		t.Fatal(err)
	}
	errv := relErr(got, want)
	if errv > tol {
		t.Errorf("%s: FMM error %v > %v", k.Name(), errv, tol)
	}
	return errv
}

// TestFMMAccuracyUniform: all three kernels on the uniform distribution,
// identical source and target sets.
func TestFMMAccuracyUniform(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy sweep skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(1))
	pts := geom.Flatten(geom.UniformCube(rng, 1200))
	for _, k := range []kernels.Kernel{kernels.Laplace{}, kernels.NewModLaplace(1), kernels.NewStokes(1)} {
		checkAgainstDirect(t, k, pts, pts, Options{Degree: 6, MaxPoints: 30}, 2e-3)
	}
}

// TestFMMAccuracyClustered: the paper's non-uniform corner-cluster
// distribution, which exercises deep adaptive refinement and the W/X
// lists.
func TestFMMAccuracyClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := geom.Flatten(geom.CornerClusters(rng, 1500, 0.35, 1))
	for _, k := range []kernels.Kernel{kernels.Laplace{}, kernels.NewStokes(1)} {
		checkAgainstDirect(t, k, pts, pts,
			Options{Degree: 6, MaxPoints: 20}, 2e-3)
	}
}

// TestFMMAccuracySphereGrid: the paper's 512-sphere input (scaled to a
// 3x3x3 grid of spheres here to keep the direct reference cheap).
func TestFMMAccuracySphereGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := geom.Flatten(geom.SphereGrid(rng, 2000, 3, 0.25))
	checkAgainstDirect(t, kernels.Laplace{}, pts, pts,
		Options{Degree: 6, MaxPoints: 40}, 2e-3)
}

// TestFMMDistinctSourceTarget: sources and targets are different clouds.
func TestFMMDistinctSourceTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	src := geom.Flatten(geom.UniformCube(rng, 900))
	trg := geom.Flatten(geom.CornerClusters(rng, 700, 0.4, 1))
	checkAgainstDirect(t, kernels.Laplace{}, src, trg,
		Options{Degree: 6, MaxPoints: 25}, 2e-3)
}

// TestFMMConvergenceInDegree: the error must fall steeply with p (the
// paper targets 1e-5 at its chosen accuracy).
func TestFMMConvergenceInDegree(t *testing.T) {
	if testing.Short() {
		t.Skip("degree sweep skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(5))
	pts := geom.Flatten(geom.UniformCube(rng, 900))
	var errs []float64
	for _, p := range []int{4, 6, 8} {
		errs = append(errs, checkAgainstDirect(t, kernels.Laplace{}, pts, pts,
			Options{Degree: p, MaxPoints: 30}, 1))
	}
	if !(errs[0] > errs[1] && errs[1] > errs[2]) {
		t.Errorf("error must decrease with degree: %v", errs)
	}
	if errs[2] > 1e-5 {
		t.Errorf("p=8 should reach the paper's 1e-5 accuracy, got %v", errs[2])
	}
}

// TestFMMLinearity: the evaluation is linear in the densities.
func TestFMMLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pts := geom.Flatten(geom.UniformCube(rng, 600))
	e, err := NewCtx(bg, pts, pts, Options{Kernel: kernels.Laplace{}, Degree: 5, MaxPoints: 25})
	if err != nil {
		t.Fatal(err)
	}
	d1 := geom.RandomDensities(rng, 600, 1)
	d2 := geom.RandomDensities(rng, 600, 1)
	alpha := 2.5
	comb := make([]float64, 600)
	for i := range comb {
		comb[i] = d1[i] + alpha*d2[i]
	}
	p1, _, _ := eval(bg, e, d1)
	p2, _, _ := eval(bg, e, d2)
	pc, _, _ := eval(bg, e, comb)
	want := make([]float64, 600)
	for i := range want {
		want[i] = p1[i] + alpha*p2[i]
	}
	if err := relErr(pc, want); err > 1e-11 {
		t.Errorf("linearity violated: %v", err)
	}
}

// TestFMMZeroDensity: zero in, zero out.
func TestFMMZeroDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	pts := geom.Flatten(geom.UniformCube(rng, 400))
	e, err := NewCtx(bg, pts, pts, Options{Kernel: kernels.Laplace{}, Degree: 4, MaxPoints: 20})
	if err != nil {
		t.Fatal(err)
	}
	pot, _, err := eval(bg, e, make([]float64, 400))
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range pot {
		if v != 0 {
			t.Fatalf("pot[%d] = %v for zero density", i, v)
		}
	}
}

// TestFMMSmallInputs: trees of depth 0/1 fall back to pure direct
// interactions through the U list.
func TestFMMSmallInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 10, 61} {
		pts := geom.Flatten(geom.UniformCube(rng, n))
		checkAgainstDirect(t, kernels.Laplace{}, pts, pts,
			Options{Degree: 4, MaxPoints: 60}, 1e-12)
	}
}

// TestFMMRepeatedEvaluations: the paper's use case applies the same tree
// to many density vectors (Krylov iterations); results must be
// reproducible and independent.
func TestFMMRepeatedEvaluations(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	pts := geom.Flatten(geom.UniformCube(rng, 800))
	e, err := NewCtx(bg, pts, pts, Options{Kernel: kernels.Laplace{}, Degree: 5, MaxPoints: 30})
	if err != nil {
		t.Fatal(err)
	}
	den := geom.RandomDensities(rng, 800, 1)
	first, _, _ := eval(bg, e, den)
	eval(bg, e, geom.RandomDensities(rng, 800, 1)) // interleave another vector
	second, _, _ := eval(bg, e, den)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("evaluation not reproducible at %d", i)
		}
	}
}

// TestFMMWorkersBitwiseReproducible: the parallel executor must produce
// bitwise-identical results for every worker count — workers only
// partition per-box work, and each box's floating-point accumulation
// order is fixed.
func TestFMMWorkersBitwiseReproducible(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	pts := geom.Flatten(geom.CornerClusters(rng, 2000, 0.35, 1))
	den := geom.RandomDensities(rng, 2000, 1)
	var want []float64
	for _, workers := range []int{1, 2, 3, 8} {
		// Explicit pools make the widths real even on a single-core
		// machine, where the default pool would grant width 1 throughout.
		e, err := NewCtx(bg, pts, pts, Options{
			Kernel: kernels.Laplace{}, Degree: 5, MaxPoints: 25,
			Workers: workers, Pool: exec.NewElastic(8),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := eval(bg, e, den)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d differs from workers=1 at %d: %g vs %g", workers, i, got[i], want[i])
			}
		}
	}
}

// TestFMMConcurrentEvaluations: one Evaluator, many concurrent callers
// (the evaluation service's hot-plan workload). Every result must be
// bitwise identical to an undisturbed call; run under -race this guards
// the engine's read-only-plan contract.
func TestFMMConcurrentEvaluations(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pts := geom.Flatten(geom.UniformCube(rng, 1200))
	// A shared 4-lane pool under 8 concurrent callers exercises the
	// admission queue and mid-run revocation alongside the read-only
	// plan contract.
	e, err := NewCtx(bg, pts, pts, Options{Kernel: kernels.Laplace{}, Degree: 5, MaxPoints: 30, Workers: 2, Pool: exec.NewElastic(4)})
	if err != nil {
		t.Fatal(err)
	}
	const callers = 8
	dens := make([][]float64, callers)
	wants := make([][]float64, callers)
	for c := range dens {
		dens[c] = geom.RandomDensities(rng, 1200, 1)
		want, _, err := eval(bg, e, dens[c])
		if err != nil {
			t.Fatal(err)
		}
		wants[c] = want
	}
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			got, st, err := eval(bg, e, dens[c])
			if err != nil {
				errc <- err
				return
			}
			if st.Flops() <= 0 {
				errc <- fmt.Errorf("caller %d: per-call stats empty", c)
			}
			for i := range got {
				if got[i] != wants[c][i] {
					errc <- fmt.Errorf("caller %d: concurrent result differs at %d", c, i)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestFMMEvaluateBatch: a batch is its vectors, bit for bit, for every
// built-in kernel, and it counts the flops of the single evaluations it
// stands for. Batches of four (the V-list block body's four-vector case,
// the width of the benchmark's Stokes batches) and five (four plus a
// lone vector) are checked.
func TestFMMEvaluateBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	pts := geom.Flatten(geom.CornerClusters(rng, 1500, 0.35, 1))
	for _, k := range []kernels.Kernel{kernels.Laplace{}, kernels.NewStokes(1), kernels.NewModLaplace(2), kernels.NewKelvin(1, 0.3)} {
		e, err := NewCtx(bg, pts, pts, Options{Kernel: k, Degree: 5, MaxPoints: 20})
		if err != nil {
			t.Fatal(err)
		}
		const maxRHS = 5
		dens := make([][]float64, maxRHS)
		want := make([][]float64, maxRHS)
		flops := make([]int64, maxRHS)
		for q := range dens {
			dens[q] = geom.RandomDensities(rng, 1500, k.SourceDim())
			var st Stats
			want[q], st, err = eval(bg, e, dens[q])
			if err != nil {
				t.Fatal(err)
			}
			flops[q] = st.Flops()
		}
		for _, nrhs := range []int{4, maxRHS} {
			got, st, err := e.Evaluate(bg, dens[:nrhs], nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != nrhs {
				t.Fatalf("%s: got %d vectors, want %d", k.Name(), len(got), nrhs)
			}
			if st.Total() <= 0 {
				t.Errorf("%s: batch stats not populated: %+v", k.Name(), st)
			}
			var sum int64
			for _, f := range flops[:nrhs] {
				sum += f
			}
			if st.Flops() != sum {
				t.Errorf("%s: batch of %d counts %d flops, its single vectors %d", k.Name(), nrhs, st.Flops(), sum)
			}
			for q := range got {
				if err := assertSameBits(fmt.Sprintf("%s: batch of %d, vector %d", k.Name(), nrhs, q), got[q], want[q]); err != nil {
					t.Error(err)
				}
			}
		}
	}
}

// TestFMMEvaluateBatchErrors: empty batches and ragged vectors must be
// rejected.
func TestFMMEvaluateBatchErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	pts := geom.Flatten(geom.UniformCube(rng, 100))
	e, err := NewCtx(bg, pts, pts, Options{Kernel: kernels.Laplace{}, Degree: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Evaluate(bg, nil, nil, nil); err == nil {
		t.Error("empty batch must error")
	}
	good := geom.RandomDensities(rng, 100, 1)
	if _, _, err := e.Evaluate(bg, [][]float64{good, make([]float64, 7)}, nil, nil); err == nil {
		t.Error("ragged batch must error")
	}
}

// TestFMMStatsPopulated: stage timings and flop counts must be recorded
// for the harness.
func TestFMMStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := geom.Flatten(geom.UniformCube(rng, 3000))
	e, err := NewCtx(bg, pts, pts, Options{Kernel: kernels.Laplace{}, Degree: 5, MaxPoints: 20})
	if err != nil {
		t.Fatal(err)
	}
	_, s, err := eval(bg, e, geom.RandomDensities(rng, 3000, 1))
	if err != nil {
		t.Fatal(err)
	}
	if s.FlopsUp <= 0 || s.FlopsDownU <= 0 || s.FlopsDownV <= 0 || s.FlopsEval <= 0 {
		t.Errorf("flop counters not populated: %+v", s)
	}
	if s.Total() <= 0 {
		t.Error("stage timings not populated")
	}
	if s.Flops() != s.FlopsUp+s.FlopsDownU+s.FlopsDownV+s.FlopsDownW+s.FlopsDownX+s.FlopsEval {
		t.Error("Flops() must sum the stages")
	}
}

// TestFMMValidation covers option errors.
func TestFMMValidation(t *testing.T) {
	if _, err := NewCtx(bg, nil, nil, Options{}); err == nil {
		t.Error("missing kernel must error")
	}
	pts := []float64{0, 0, 0}
	e, err := NewCtx(bg, pts, pts, Options{Kernel: kernels.Laplace{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eval(bg, e, []float64{1, 2}); err == nil {
		t.Error("wrong density length must error")
	}
}
