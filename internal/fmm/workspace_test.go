package fmm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/kernels"
)

// cancellingGhost is a mirrorGhost that cancels its evaluation when a
// pass first reads a list member's sources: the sweep stops with its
// check potentials, downward densities and Morton-order potentials
// partly written, and its workspace goes back to the pool that way.
type cancellingGhost struct {
	mirrorGhost
	once   sync.Once
	cancel context.CancelFunc
}

func (g *cancellingGhost) Sources(bi int32, q int) (pos, den []float64) {
	g.once.Do(g.cancel)
	return g.mirrorGhost.Sources(bi, q)
}

func assertSameBits(what string, got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("%s: differs at %d: %v vs %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// TestWorkspaceReuseIsInvisible: evaluations that recycle each other's
// workspaces — concurrently, alternating batches of one and four, with
// evaluations cancelled mid-sweep in between — return exactly the bits
// of a fresh evaluator's first call. The plan takes the V, W and X lists.
func TestWorkspaceReuseIsInvisible(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	const n = 2000
	pts := geom.Flatten(geom.CornerClusters(rng, n, 0.3, 1))
	opt := Options{Kernel: kernels.Laplace{}, Degree: 6, Workers: 2, Pool: exec.NewElastic(4)}
	fresh := func() *Evaluator {
		e, err := NewCtx(bg, pts, pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	shared := fresh()
	var nv, nw, nx int
	for i := range shared.Tree.Boxes {
		b := &shared.Tree.Boxes[i]
		nv, nw, nx = nv+len(b.V), nw+len(b.W), nx+len(b.X)
	}
	if nv == 0 || nw == 0 || nx == 0 {
		t.Fatalf("geometry misses a list: %d V, %d W, %d X entries", nv, nw, nx)
	}
	dens := make([][]float64, 5)
	for q := range dens {
		dens[q] = geom.RandomDensities(rng, n, 1)
	}
	single, batch := dens[:1], dens[1:]
	wantSingle, _, err := fresh().Evaluate(bg, single, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantBatch, _, err := fresh().Evaluate(bg, batch, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	const callers = 4
	errc := make(chan error, callers*rounds*2)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if c == 0 {
					ctx, cancel := context.WithCancel(bg)
					g := &cancellingGhost{mirrorGhost: mirrorGhost{e: shared, pden: make([]float64, n)}, cancel: cancel}
					for j, orig := range shared.Tree.SrcPerm {
						g.pden[j] = dens[0][orig]
					}
					if _, _, err := shared.Evaluate(ctx, single, nil, g); err == nil {
						errc <- fmt.Errorf("caller %d round %d: cancelled evaluation succeeded", c, i)
					}
					cancel()
				}
				in, want := single, wantSingle
				if (c+i)%2 == 1 {
					in, want = batch, wantBatch
				}
				got, _, err := shared.Evaluate(bg, in, nil, nil)
				if err != nil {
					errc <- err
					continue
				}
				for q := range want {
					if err := assertSameBits(fmt.Sprintf("caller %d round %d vector %d of %d", c, i, q, len(in)), got[q], want[q]); err != nil {
						errc <- err
					}
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

// TestWarmEvaluateAllocationIsFlat: once a plan is warm, an evaluation
// allocates its output and a fixed set of small objects — the lease, the
// run state, the closures and bookkeeping of each pass — however many
// boxes and points the tree holds. The two uniform trees run the same
// passes (same depth, V-list work on the same levels), so that fixed set
// is the same, while their boxes differ threefold and their points
// 3.4-fold: one allocation per box would add hundreds.
func TestWarmEvaluateAllocationIsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool.Put drops items at random, so a warm call may build a new workspace")
	}
	type shape struct {
		depth   int
		vLevels string
	}
	sizes := []int{3500, 12000}
	allocs := make([]float64, len(sizes))
	shapes := make([]shape, len(sizes))
	for i, n := range sizes {
		rng := rand.New(rand.NewSource(7))
		pts := geom.Flatten(geom.UniformCube(rng, n))
		e, err := NewCtx(bg, pts, pts, Options{Kernel: kernels.Laplace{}, Degree: 4, MaxPoints: 60, Workers: 1, Pool: exec.NewElastic(1)})
		if err != nil {
			t.Fatal(err)
		}
		v := make([]bool, e.Tree.Depth())
		for bi := range e.Tree.Boxes {
			b := &e.Tree.Boxes[bi]
			v[b.Level()] = v[b.Level()] || len(b.V) > 0
		}
		shapes[i] = shape{e.Tree.Depth(), fmt.Sprint(v)}
		den := [][]float64{geom.RandomDensities(rng, n, 1)}
		if _, _, err := e.Evaluate(bg, den, nil, nil); err != nil {
			t.Fatal(err)
		}
		allocs[i] = testing.AllocsPerRun(20, func() {
			if _, _, err := e.Evaluate(bg, den, nil, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("N=%d: %d boxes, %+v, %v allocations per warm evaluation", n, len(e.Tree.Boxes), shapes[i], allocs[i])
	}
	if shapes[0] != shapes[1] {
		t.Fatalf("the trees run different passes (%+v vs %+v): pick sizes of one shape", shapes[0], shapes[1])
	}
	// The runtime itself now and then adds an allocation or two to a call.
	const slack = 8
	if d := allocs[1] - allocs[0]; d > slack || d < -slack {
		t.Errorf("warm evaluation allocates %v objects at N=%d but %v at N=%d", allocs[0], sizes[0], allocs[1], sizes[1])
	}
}
