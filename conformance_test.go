package kifmm

// The conformance suite is the randomized oracle lock on the whole
// library: seeded-random plans swept across kernel x distribution x
// degree x depth x workers x batch-size, every potential cross-checked
// against the O(N²) direct summation (internal/direct) to the degree's
// expected accuracy, plus the bitwise-determinism guarantees the
// elastic scheduler must preserve — identical results across granted
// widths {1, 2, max} and across a mid-run lane revocation. Scheduling
// changes are exactly where determinism and correctness bugs hide;
// anything that breaks either fails here before it ships.
//
// The case table is shared with conformance_golden_test.go (through
// export_test.go), which runs every case through every path a caller
// can take and pins the bits. CI runs `go test -run Conformance -short`
// as a dedicated job; the full sweep runs with the normal test suite.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/fmm"
)

// conformanceTol is the expected relative accuracy of a degree-p
// equivalent surface (the paper's Table 4.1 regime, with headroom for
// clustered distributions and the small point sets used here). Tensor
// kernels (Stokes, Kelvin) converge visibly slower in p than the
// scalar ones, so they get a looser bound at low degree.
func conformanceTol(k Kernel, degree int) float64 {
	tensor := k.SourceDim() > 1
	switch {
	case degree <= 4 && tensor:
		return 2e-1
	case degree <= 4:
		return 2e-2
	case degree <= 6 && tensor:
		return 1e-2
	case degree <= 6:
		return 5e-3
	default:
		return 1e-4
	}
}

// conformanceCase is one randomized plan configuration. Patches are kept
// for the parallel driver, which partitions whole patches; Pts is their
// flattening.
type conformanceCase struct {
	Name     string
	Kernel   Kernel
	Patches  []Patch
	Pts      []float64
	Degree   int
	MaxPts   int
	MaxDepth int
	Workers  int
	Batch    int
}

// drawConformanceCases derives the sweep from a seeded generator: same
// seed, same plans, so a failure reproduces by name.
func drawConformanceCases(seed int64, iters int) []conformanceCase {
	rng := rand.New(rand.NewSource(seed))
	kernels := []struct {
		name string
		k    Kernel
	}{
		{"laplace", Laplace()},
		{"modlaplace", ModLaplace(1.5)},
		{"stokes", Stokes(1)},
		{"kelvin", Kelvin(1, 0.3)},
	}
	distributions := []string{"uniform", "corner", "sphere"}
	var cases []conformanceCase
	for i := 0; i < iters; i++ {
		k := kernels[rng.Intn(len(kernels))]
		dist := distributions[rng.Intn(len(distributions))]
		n := 300 + rng.Intn(400)
		var patches []Patch
		switch dist {
		case "uniform":
			patches = UniformPatches(rng.Int63(), n)
		case "corner":
			patches = CornerPatches(rng.Int63(), n, 0.3)
		case "sphere":
			patches = SpherePatches(rng.Int63(), n, 3, 0.2)
		}
		degree := 4
		if rng.Intn(3) == 0 {
			degree = 6
		}
		// Degree-6 tensor-kernel operator construction costs ~10s of
		// SVDs; keep the seeded draw stable but trim it under -short
		// (the race job's budget).
		if testing.Short() && degree == 6 && k.k.SourceDim() > 1 {
			degree = 4
		}
		maxDepth := 0 // uncapped
		if rng.Intn(3) == 0 {
			maxDepth = 2 + rng.Intn(2) // shallow trees skip/stress the downward pass
		}
		// The retired M2L-backend draw keeps every later field of every
		// case as drawn, and its -b segment keeps every case's name.
		b := 0
		if rng.Intn(3) == 0 {
			b = 1
		}
		c := conformanceCase{
			Kernel: k.k, Patches: patches, Pts: FlattenPatches(patches),
			Degree: degree, MaxPts: 15 + rng.Intn(40), MaxDepth: maxDepth,
			Workers: 1 + rng.Intn(4),
			Batch:   1 + rng.Intn(3),
		}
		c.Name = fmt.Sprintf("%02d-%s-%s-n%d-d%d-s%d-depth%d-b%d-w%d-rhs%d",
			i, k.name, dist, n, c.Degree, c.MaxPts, c.MaxDepth, b, c.Workers, c.Batch)
		cases = append(cases, c)
	}
	return cases
}

// Evaluate builds the case's plan on pool and evaluates its seeded batch,
// returning the densities, the potentials and the call's own Stats.
func (c conformanceCase) Evaluate(t *testing.T, pool *Pool) (dens, pots [][]float64, st fmm.Stats) {
	t.Helper()
	ev, err := NewEvaluatorCtx(context.Background(), c.Pts, c.Pts, Options{
		Kernel: c.Kernel, Degree: c.Degree, MaxPoints: c.MaxPts,
		MaxDepth: c.MaxDepth, Workers: c.Workers, Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	dens = make([][]float64, c.Batch)
	for q := range dens {
		dens[q] = RandomDensities(int64(100+q), len(c.Pts)/3, c.Kernel.SourceDim())
	}
	pots, st, _, err = ev.EvaluateBatchTracedCtx(context.Background(), dens)
	if err != nil {
		t.Fatal(err)
	}
	return dens, pots, st
}

// TestConformanceRandomizedVsDirect: every FMM potential in the seeded
// sweep must match direct summation to the degree's expected accuracy,
// on every vector of the batch.
func TestConformanceRandomizedVsDirect(t *testing.T) {
	iters := 12
	if testing.Short() {
		iters = 4
	}
	pool := NewPool(4)
	for _, c := range drawConformanceCases(7001, iters) {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			dens, pots, _ := c.Evaluate(t, pool)
			tol := conformanceTol(c.Kernel, c.Degree)
			for q := range dens {
				want, err := Direct(c.Kernel, c.Pts, c.Pts, dens[q])
				if err != nil {
					t.Fatal(err)
				}
				if e := rel(pots[q], want); e > tol {
					t.Errorf("rhs %d: relative error %.3e > %.0e vs direct summation", q, e, tol)
				}
			}
		})
	}
}

// TestConformanceBitwiseAcrossElasticWidths: identical plans evaluated
// at granted widths 1, 2 and the full pool must agree bit for bit, on the
// batch path too — the guarantee that lets the scheduler pick widths
// freely.
func TestConformanceBitwiseAcrossElasticWidths(t *testing.T) {
	pts := FlattenPatches(CornerPatches(41, 900, 0.35))
	n := len(pts) / 3
	dens := [][]float64{
		RandomDensities(42, n, 1),
		RandomDensities(43, n, 1),
	}
	if testing.Short() {
		dens = dens[:1]
	}
	var want [][]float64
	for _, workers := range []int{1, 2, 8} {
		// A fresh idle pool per run grants exactly the requested width
		// even on a single-core machine.
		ev, err := NewEvaluatorCtx(context.Background(), pts, pts, Options{
			Kernel: Laplace(), Degree: 4, MaxPoints: 25,
			Workers: workers, Pool: NewPool(8),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, st, _, err := ev.EvaluateBatchTracedCtx(context.Background(), dens)
		if err != nil {
			t.Fatal(err)
		}
		if st.Lanes != workers {
			t.Fatalf("idle pool granted %d lanes, want %d", st.Lanes, workers)
		}
		if want == nil {
			want = got
			continue
		}
		for q := range got {
			for i := range got[q] {
				if got[q][i] != want[q][i] {
					t.Fatalf("width %d differs from width 1 at rhs %d index %d", workers, q, i)
				}
			}
		}
	}
}

// TestConformanceShrinkMidRun: an evaluation whose lease is revoked
// while it runs — competitors acquiring and releasing lanes throughout,
// shrinking the sweep at chunk boundaries and between passes — must
// still produce the undisturbed result bit for bit.
func TestConformanceShrinkMidRun(t *testing.T) {
	pool := NewPool(4)
	pts := FlattenPatches(UniformPatches(51, 1500))
	n := len(pts) / 3
	den := RandomDensities(52, n, 1)
	ev, err := NewEvaluatorCtx(context.Background(), pts, pts, Options{
		Kernel: Laplace(), Degree: 5, MaxPoints: 30, Workers: 4, Pool: pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	wants, st, _, err := ev.EvaluateBatchTracedCtx(context.Background(), [][]float64{den}) // undisturbed: full width
	if err != nil {
		t.Fatal(err)
	}
	want := wants[0]
	if st.Lanes != 4 {
		t.Fatalf("undisturbed evaluation granted %d lanes, want 4", st.Lanes)
	}

	// Competitor: repeatedly grab a lane and let it go, forcing the
	// running evaluation to shed and regrow lanes throughout.
	stop := make(chan struct{})
	contended := make(chan int, 1)
	go func() {
		grabs := 0
		for {
			select {
			case <-stop:
				contended <- grabs
				return
			default:
			}
			lease, err := pool.Acquire(context.Background(), 1)
			if err != nil {
				contended <- grabs
				return
			}
			grabs++
			time.Sleep(200 * time.Microsecond)
			lease.Release()
		}
	}()
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for r := 0; r < rounds; r++ {
		got, err := ev.EvaluateCtx(context.Background(), den)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: contended evaluation differs at %d", r, i)
			}
		}
	}
	close(stop)
	if grabs := <-contended; grabs == 0 {
		t.Error("competitor never acquired a lane; the shrink path was not exercised")
	}
	if in := pool.LanesInUse(); in != 0 {
		t.Errorf("LanesInUse = %d after everything released", in)
	}
}
