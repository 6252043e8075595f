package fmm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
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

// reusePlan is one plan of the workspace-reuse tests: its evaluator on
// the shared pool, and the bits a fresh evaluator's first call returns
// for each of its inputs.
type reusePlan struct {
	e         *Evaluator
	in, want  [][][]float64 // a single vector and a batch of four
	densities [][]float64
}

// newReusePlan builds a plan of kernel k over pts on pool, and takes its
// expected results from evaluators on pools of their own, whose first
// call finds no workspace to reuse.
func newReusePlan(t *testing.T, rng *rand.Rand, pts []float64, k kernels.Kernel, degree int, pool *exec.Elastic) *reusePlan {
	t.Helper()
	n := len(pts) / 3
	opt := Options{Kernel: k, Degree: degree, Workers: 2, Pool: pool}
	e, err := NewCtx(bg, pts, pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	p := &reusePlan{e: e, densities: make([][]float64, 5)}
	for q := range p.densities {
		p.densities[q] = geom.RandomDensities(rng, n, k.SourceDim())
	}
	p.in = [][][]float64{p.densities[:1], p.densities[1:]}
	for _, in := range p.in {
		opt.Pool = exec.NewElastic(pool.MaxWorkers())
		fresh, err := NewCtx(bg, pts, pts, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fresh.Evaluate(bg, in, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		p.want = append(p.want, want)
	}
	return p
}

// check evaluates input i of the plan and compares every vector's bits.
func (p *reusePlan) check(what string, i int) error {
	got, _, err := p.e.Evaluate(bg, p.in[i], nil, nil)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	for q := range p.want[i] {
		if err := assertSameBits(fmt.Sprintf("%s vector %d of %d", what, q, len(p.in[i])), got[q], p.want[i][q]); err != nil {
			return err
		}
	}
	return nil
}

// TestWorkspaceReuseIsInvisible: evaluations that recycle each other's
// workspaces return exactly the bits of a fresh evaluator's first call —
// on one plan concurrently, alternating batches of one and four, with
// evaluations cancelled mid-sweep in between; and across two plans of
// different trees and degrees that alternate on one pool, so a workspace
// last sized by one plan serves the other, and the grid slab the large
// plan left is shed by the small one's calls, as are the lane
// accumulators a Stokes batch left, and then the pool holds at most four
// times what a small call asks for. The large plan takes the V, W and X
// lists.
func TestWorkspaceReuseIsInvisible(t *testing.T) {
	rounds := 4
	if testing.Short() {
		rounds = 2
	}
	t.Run("one plan", func(t *testing.T) {
		rng := rand.New(rand.NewSource(34))
		const n = 2000
		pool := exec.NewElastic(4)
		p := newReusePlan(t, rng, geom.Flatten(geom.CornerClusters(rng, n, 0.3, 1)), kernels.Laplace{}, 6, pool)
		shared := p.e
		var nv, nw, nx int
		for i := range shared.Tree.Boxes {
			b := &shared.Tree.Boxes[i]
			nv, nw, nx = nv+len(b.V), nw+len(b.W), nx+len(b.X)
		}
		if nv == 0 || nw == 0 || nx == 0 {
			t.Fatalf("geometry misses a list: %d V, %d W, %d X entries", nv, nw, nx)
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
							g.pden[j] = p.densities[0][orig]
						}
						if _, _, err := shared.Evaluate(ctx, p.in[0], nil, g); err == nil {
							errc <- fmt.Errorf("caller %d round %d: cancelled evaluation succeeded", c, i)
						}
						cancel()
					}
					if err := p.check(fmt.Sprintf("caller %d round %d", c, i), (c+i)%2); err != nil {
						errc <- err
					}
				}
			}(c)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Error(err)
		}
	})
	t.Run("two plans", func(t *testing.T) {
		rng := rand.New(rand.NewSource(35))
		pool := exec.NewElastic(2)
		large := newReusePlan(t, rng, geom.Flatten(geom.CornerClusters(rng, 2000, 0.3, 1)), kernels.Laplace{}, 6, pool)
		small := newReusePlan(t, rng, geom.Flatten(geom.UniformCube(rng, 300)), kernels.Laplace{}, 4, pool)
		stokes := newReusePlan(t, rng, geom.Flatten(geom.UniformCube(rng, 1000)), kernels.NewStokes(1), 4, pool)
		plans := []*reusePlan{large, small}
		// In sequence first: one workspace serves both plans in turn, and
		// small single vectors after a large batch shed its grid slab.
		seq := []struct{ plan, in int }{{0, 1}, {1, 0}, {0, 0}, {1, 1}, {1, 0}, {0, 0}, {1, 1}, {0, 1}}
		for i, s := range seq {
			if err := plans[s.plan].check(fmt.Sprintf("call %d (plan %d input %d)", i, s.plan, s.in), s.in); err != nil {
				t.Error(err)
			}
		}
		gridCap := func() int {
			w := pool.TakeSpare().(*workspace)
			defer pool.PutSpare(w, w.bytes, w.bytes)
			return cap(w.grids)
		}
		afterLarge, bytesLarge := gridCap(), pool.SpareBytes()
		for i := 0; i < len(workspace{}.use); i++ {
			if err := small.check(fmt.Sprintf("small call %d", i), 0); err != nil {
				t.Error(err)
			}
		}
		if out, spare, made := pool.SpareCounts(); out != 0 || spare != 1 || made != 1 {
			t.Errorf("sequential calls: %d workspaces out, %d spare, %d made; want 0, 1, 1", out, spare, made)
		}
		if shed := gridCap(); shed*4 > afterLarge || pool.SpareBytes() >= bytesLarge {
			t.Errorf("small calls after a large batch left a grid slab of %d of %d, and %d workspace bytes of %d: the slab was not shed", shed, afterLarge, pool.SpareBytes(), bytesLarge)
		}
		// From then on the pool holds what the small plan's calls use, and
		// never more than four times the bytes each of them asks for.
		staysSmall := func(after string) {
			for i := 0; i < len(workspace{}.use); i++ {
				if err := small.check(fmt.Sprintf("small call %d after %s", i, after), 0); err != nil {
					t.Error(err)
				}
				w := pool.TakeSpare().(*workspace)
				asked := w.use[(w.calls-1)%len(w.use)]
				pool.PutSpare(w, w.bytes, w.bytes)
				if held := pool.SpareBytes(); held == 0 || held > 4*asked {
					t.Errorf("after %s, small call %d asked for %d bytes and the pool holds %d", after, i, asked, held)
				}
			}
		}
		staysSmall("a large batch")
		// A Stokes batch of four leaves each lane the eight sibling
		// accumulators of 4 x 3 Fourier grids; the small plan's single
		// vectors, which need one grid each, shed those too.
		if err := stokes.check("stokes batch", 1); err != nil {
			t.Error(err)
		}
		accCap := func() int {
			w := pool.TakeSpare().(*workspace)
			defer pool.PutSpare(w, w.bytes, w.bytes)
			most := 0
			for _, sc := range w.lanes[:cap(w.lanes)] {
				most = max(most, cap(sc.acc))
			}
			return most
		}
		afterStokes, bytesStokes := accCap(), pool.SpareBytes()
		for i := 0; i < len(workspace{}.use); i++ {
			if err := small.check(fmt.Sprintf("small call %d after stokes", i), 0); err != nil {
				t.Error(err)
			}
		}
		if shed := accCap(); afterStokes == 0 || shed*4 > afterStokes || pool.SpareBytes() >= bytesStokes {
			t.Errorf("small calls after a Stokes batch left lane accumulators of %d of %d, and %d workspace bytes of %d: they were not shed", shed, afterStokes, pool.SpareBytes(), bytesStokes)
		}
		staysSmall("a Stokes batch")
		// Then concurrently, every caller alternating plan and batch.
		const callers = 4
		errc := make(chan error, callers*rounds*4)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < 2*rounds; i++ {
					k := c + i
					if err := plans[k%2].check(fmt.Sprintf("caller %d round %d plan %d", c, i, k%2), k/2%2); err != nil {
						errc <- err
					}
				}
			}(c)
		}
		wg.Wait()
		close(errc)
		for err := range errc {
			t.Error(err)
		}
	})
}

// TestPoolWorkspacesNeverExceedCapacity: a pool holds at most one
// workspace per lane of its capacity, in use and spare together, however
// many plans share it and however many callers queue on it. Twice the
// capacity in callers evaluate four plans of different sizes; a monitor
// samples the pool's counts while they run, and the number of workspaces
// the pool ever made bounds every instant.
func TestPoolWorkspacesNeverExceedCapacity(t *testing.T) {
	const capacity = 2
	pool := exec.NewElastic(capacity)
	rng := rand.New(rand.NewSource(36))
	var plans []*Evaluator
	var dens [][][]float64
	for _, n := range []int{300, 700, 1200, 2000} {
		pts := geom.Flatten(geom.UniformCube(rng, n))
		e, err := NewCtx(bg, pts, pts, Options{Kernel: kernels.Laplace{}, Degree: 4, Workers: capacity, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, e)
		d := make([][]float64, 1+len(plans)%2*3)
		for q := range d {
			d[q] = geom.RandomDensities(rng, n, 1)
		}
		dens = append(dens, d)
	}
	rounds := 6
	if testing.Short() {
		rounds = 3
	}
	stop := make(chan struct{})
	peak := make(chan int)
	go func() {
		most := 0
		for {
			out, spare, _ := pool.SpareCounts()
			most = max(most, out+spare)
			select {
			case <-stop:
				peak <- most
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	errc := make(chan error, 2*capacity*rounds)
	var wg sync.WaitGroup
	for c := 0; c < 2*capacity; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (c + i) % len(plans)
				if _, _, err := plans[k].Evaluate(bg, dens[k], nil, nil); err != nil {
					errc <- err
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	most := <-peak
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	out, spare, made := pool.SpareCounts()
	t.Logf("%d workspaces made, at most %d seen at once, %d spare at the end", made, most, spare)
	if made > capacity || most > capacity || out != 0 || spare > capacity {
		t.Errorf("pool of capacity %d: %d workspaces made, %d at once at most, %d out and %d spare at the end", capacity, made, most, out, spare)
	}
}

// TestWarmEvaluateAllocationIsFlat: once a plan is warm, an evaluation
// allocates its output and a fixed set of small objects — the lease, the
// run state, the closures of each pass — however many boxes and points
// the tree holds, whatever the kernel and the batch: at most
// maxWarmAllocs in all (20 to 25 as measured; the dispatches themselves
// allocate nothing at width one). The
// two uniform trees run the same passes (same depth, V-list work on the
// same levels), so that fixed set is the same, while their boxes differ
// threefold and their points 3.4-fold: one allocation per box would add
// hundreds. A kernel without a specialized near-field loop (Kelvin)
// evaluates its blocks into lane scratch, so it allocates as few objects
// as Laplace at the same batch.
func TestWarmEvaluateAllocationIsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("under -race sync.Pool.Put drops items at random, so a warm call may make new FFT scratch")
	}
	type shape struct {
		depth   int
		vLevels string
	}
	sizes := []int{3500, 12000}
	// The runtime itself now and then adds an allocation or two to a call.
	const slack = 8
	const maxWarmAllocs = 32
	// measure returns kernel k's allocations per warm evaluation at each
	// size for a batch of nrhs, after checking the trees' shapes agree.
	measure := func(t *testing.T, k kernels.Kernel, nrhs int) []float64 {
		allocs := make([]float64, len(sizes))
		shapes := make([]shape, len(sizes))
		for i, n := range sizes {
			rng := rand.New(rand.NewSource(7))
			pts := geom.Flatten(geom.UniformCube(rng, n))
			e, err := NewCtx(bg, pts, pts, Options{Kernel: k, Degree: 4, MaxPoints: 60, Workers: 1, Pool: exec.NewElastic(1)})
			if err != nil {
				t.Fatal(err)
			}
			v := make([]bool, e.Tree.Depth())
			for bi := range e.Tree.Boxes {
				b := &e.Tree.Boxes[bi]
				v[b.Level()] = v[b.Level()] || len(b.V) > 0
			}
			shapes[i] = shape{e.Tree.Depth(), fmt.Sprint(v)}
			den := make([][]float64, nrhs)
			for q := range den {
				den[q] = geom.RandomDensities(rng, n, k.SourceDim())
			}
			// AllocsPerRun's warm-up call builds the lazy operators.
			allocs[i] = testing.AllocsPerRun(2, func() {
				if _, _, err := e.Evaluate(bg, den, nil, nil); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s N=%d: %d boxes, %+v, %v allocations per warm evaluation", k.Name(), n, len(e.Tree.Boxes), shapes[i], allocs[i])
		}
		if shapes[0] != shapes[1] {
			t.Fatalf("the trees run different passes (%+v vs %+v): pick sizes of one shape", shapes[0], shapes[1])
		}
		return allocs
	}
	// laplace memoizes Laplace's allocations per batch, so a Kelvin row
	// measures its own baseline when run alone (-run).
	laplaceAllocs := map[int][]float64{}
	laplace := func(t *testing.T, nrhs int) []float64 {
		if _, ok := laplaceAllocs[nrhs]; !ok {
			laplaceAllocs[nrhs] = measure(t, kernels.Laplace{}, nrhs)
		}
		return laplaceAllocs[nrhs]
	}
	for _, k := range []kernels.Kernel{kernels.Laplace{}, kernels.NewKelvin(1, 0.3)} {
		for _, nrhs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/rhs%d", k.Name(), nrhs), func(t *testing.T) {
				var allocs []float64
				if _, ok := k.(kernels.Laplace); ok {
					allocs = laplace(t, nrhs)
				} else {
					allocs = measure(t, k, nrhs)
				}
				for i, a := range allocs {
					if a > maxWarmAllocs {
						t.Errorf("warm evaluation at N=%d allocates %v objects, want at most %d", sizes[i], a, maxWarmAllocs)
					}
				}
				if d := allocs[1] - allocs[0]; d > slack || d < -slack {
					t.Errorf("warm evaluation allocates %v objects at N=%d but %v at N=%d", allocs[0], sizes[0], allocs[1], sizes[1])
				}
				base := laplace(t, nrhs)
				for i := range sizes {
					if allocs[i] > base[i]+slack {
						t.Errorf("warm evaluation at N=%d allocates %v objects, Laplace %v", sizes[i], allocs[i], base[i])
					}
				}
			})
		}
	}
}
