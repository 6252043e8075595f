package fmm

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/kernels"
)

// TestFootprintBytesSharedAttribution: plans sharing operator-store
// entries split the shared bytes by holder count instead of each
// attributing all of them, and Close hands a closed plan's share back to
// the survivors. The kernel uses a parameter value no other test touches
// so the store entries are exclusively this test's.
func TestFootprintBytesSharedAttribution(t *testing.T) {
	k := kernels.NewModLaplace(0.1234567)
	rng := rand.New(rand.NewSource(7))
	pts := geom.Flatten(geom.UniformCube(rng, 600))
	den := geom.RandomDensities(rng, len(pts)/3, k.SourceDim())
	opt := Options{Kernel: k, Degree: 5, MaxPoints: 40, Workers: 1}

	build := func() *Evaluator {
		e, err := NewCtx(bg, pts, pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		// Evaluate once so the lazily built operators and FFT tensors
		// actually exist and count.
		if _, _, err := eval(bg, e, den); err != nil {
			t.Fatal(err)
		}
		return e
	}

	e1 := build()
	solo := e1.FootprintBytes()
	tree := e1.Tree.MemoryBytes()
	ops := solo - tree
	if ops <= 0 {
		t.Fatalf("expected cached operators after an evaluation; footprint %d, tree %d", solo, tree)
	}

	e2 := build()
	shared := e1.FootprintBytes()
	if shared >= solo {
		t.Errorf("two plans sharing operators: per-plan footprint %d did not drop below solo %d", shared, solo)
	}
	sum := e1.FootprintBytes() + e2.FootprintBytes()
	// Both trees are private, the operator bytes must be attributed
	// once: sum ≈ 2*tree + ops, strictly below the doubled attribution.
	if want := 2*tree + ops; sum > want+ops/4 {
		t.Errorf("summed footprint %d exceeds single attribution %d by more than slack", sum, want)
	}
	if sum < 2*tree+ops/2 {
		t.Errorf("summed footprint %d lost operator bytes entirely (tree %d, ops %d)", sum, tree, ops)
	}

	e2.Close()
	after := e1.FootprintBytes()
	if after < solo-ops/4 {
		t.Errorf("after closing the sharing plan, footprint %d did not return near solo %d", after, solo)
	}
	// A closed evaluator keeps working (evicted plans finish in-flight
	// evaluations); only its attribution is gone.
	if _, _, err := eval(bg, e2, den); err != nil {
		t.Errorf("closed evaluator must stay usable: %v", err)
	}
	e2.Close() // idempotent
	e1.Close()
}

func heapAlloc() int64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// TestClosedPlansFreeTheirOperators: a dozen non-homogeneous plans with
// distinct root boxes are built, evaluated and closed beside a live plan
// that shares nothing with them. Their operators must leave the heap (all
// but the store's retention, which is under two of these plans), and the
// live plan's footprint must not move: it counts what the plan uses, not
// what the process ever built for its kernel and degree.
func TestClosedPlansFreeTheirOperators(t *testing.T) {
	// The heap bound needs plans of at least half the store's retention:
	// degree 6, whose pseudo-inverses cost 16 s a plan under the race
	// detector. -short (the race job) keeps the footprint half on small
	// plans.
	const plans = 12
	degree := 6
	if testing.Short() {
		degree = 4
	}
	k := kernels.NewModLaplace(0.2345678)
	rng := rand.New(rand.NewSource(8))
	unit := geom.Flatten(geom.UniformCube(rng, 1200))
	den := geom.RandomDensities(rng, len(unit)/3, 1)
	build := func(scale float64) *Evaluator {
		pts := make([]float64, len(unit))
		for i, v := range unit {
			pts[i] = scale * v
		}
		e, err := NewCtx(bg, pts, pts, Options{Kernel: k, Degree: degree, MaxPoints: 15, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := eval(bg, e, den); err != nil {
			t.Fatal(err)
		}
		return e
	}
	live := build(0.37)
	defer live.Close()
	liveFoot := live.FootprintBytes()
	base := heapAlloc()
	var foot int64
	for i := 0; i < plans; i++ {
		e := build(1 + 0.01*float64(i))
		foot = e.FootprintBytes()
		e.Close()
		if got := live.FootprintBytes(); got != liveFoot {
			t.Fatalf("after %d unrelated plans lived and died the live plan's footprint moved from %d to %d", i+1, liveFoot, got)
		}
	}
	if grew := heapAlloc() - base; !testing.Short() && grew > 2*foot {
		t.Errorf("heap grew %d bytes over %d closed plans of %d bytes each, want <= two plans", grew, plans, foot)
	}
}

// TestClosedEvaluatorBuildsPrivately: an evaluator closed before its
// first evaluation (evicted while its first request waited for a lane)
// has mapped no operator yet. The evaluation still completes, bit for bit
// what an open evaluator computes, on operators of its own: it takes no
// share of a plan that later holds the same geometry.
func TestClosedEvaluatorBuildsPrivately(t *testing.T) {
	k := kernels.NewModLaplace(0.3456789)
	rng := rand.New(rand.NewSource(9))
	pts := geom.Flatten(geom.UniformCube(rng, 500))
	den := geom.RandomDensities(rng, len(pts)/3, 1)
	opt := Options{Kernel: k, Degree: 4, MaxPoints: 20, Workers: 1}
	closed, err := NewCtx(bg, pts, pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	got, _, err := eval(bg, closed, den)
	if err != nil {
		t.Fatalf("closed evaluator must stay usable: %v", err)
	}

	open, err := NewCtx(bg, pts, pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer open.Close()
	want, _, err := eval(bg, open, den)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("closed evaluator differs from the open one at %d", i)
		}
	}
	if o, c := open.FootprintBytes(), closed.FootprintBytes(); o != c {
		t.Errorf("sole open plan reports %d bytes, the closed one's private copy %d: the open plan's operators are shared with someone", o, c)
	}
}
