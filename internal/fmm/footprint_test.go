package fmm

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/kernels"
)

// TestFootprintBytesSharedAttribution: plans sharing the process-global
// operator caches split the shared bytes by refcount instead of each
// attributing all of them (the pre-refcount double counting), and Close
// hands a closed plan's share back to the survivors. The kernel uses a
// parameter value no other test touches so the global cache entries are
// exclusively this test's.
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
