package fmm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/tree"
)

// applyM2LTargetMajor is the reference for applyM2LFFT: the V-list sweep
// as it ran before sibling blocking, with one work unit per target box at
// level l that walks its own V list and calls AccumulateBatch once per
// member with a grid. The forward sweep is applyM2LFFT's.
func (r *runState) applyM2LTargetMajor(ctx context.Context, l int) error {
	t := r.e.Tree
	f := r.e.fft
	sd, td := r.sd, r.td
	ne, nc := r.ne, r.nc
	gl := f.GridLen()
	lo, hi := t.LevelStart[l], t.LevelStart[l+1]
	gridOf := grow(r.gridOf, hi-lo)
	for i := range gridOf {
		gridOf[i] = -1
	}
	used := r.used[:0]
	for bi := lo; bi < hi; bi++ {
		b := &t.Boxes[bi]
		if b.TrgCount == 0 {
			continue
		}
		for _, a := range b.V {
			if r.phiU[a] == nil {
				continue
			}
			if gridOf[int(a)-lo] < 0 {
				gridOf[int(a)-lo] = int32(len(used))
				used = append(used, a)
			}
		}
	}
	r.gridOf, r.used = gridOf, used
	if len(used) == 0 {
		return nil
	}
	chunk := rhsChunk(r.nrhs, len(used), sd, td, gl)
	stride := chunk * sd * gl
	r.grids = grow(r.grids, len(used)*stride)
	grids := r.grids
	for q0 := 0; q0 < r.nrhs; q0 += chunk {
		nq := min(chunk, r.nrhs-q0)
		err := r.pool.ForRange(ctx, 0, len(used), func(w, i int) {
			sc := &r.lanes[w]
			f.ForwardDensityBatch(r.phiU[used[i]][q0*ne:(q0+nq)*ne], nq, grids[i*stride:(i+1)*stride])
			sc.stats.FlopsDownV += int64(5*gl*sd) * int64(nq)
		})
		if err != nil {
			return err
		}
		err = r.pool.ForRange(ctx, lo, hi, func(w, bi int) {
			b := &t.Boxes[bi]
			if b.TrgCount == 0 || len(b.V) == 0 {
				return
			}
			sc := &r.lanes[w]
			acc := grow(sc.acc, nq*td*gl)
			sc.acc = acc
			clear(acc)
			bx, by, bz := b.Key.Decode()
			any := false
			for _, a := range b.V {
				gi := gridOf[int(a)-lo]
				if gi < 0 {
					continue
				}
				ax, ay, az := t.Boxes[a].Key.Decode()
				off := [3]int{int(bx) - int(ax), int(by) - int(ay), int(bz) - int(az)}
				f.AccumulateBatch(acc, grids[int(gi)*stride:int(gi)*stride+nq*sd*gl], nq, l, off)
				sc.stats.FlopsDownV += int64(8*gl*sd*td) * int64(nq)
				any = true
			}
			if any {
				check := r.getCheck(int32(bi))
				for q := 0; q < nq; q++ {
					f.ExtractGrids(acc[q*td*gl:(q+1)*td*gl], l, check[(q0+q)*nc:(q0+q+1)*nc])
				}
				sc.stats.FlopsDownV += int64(5*gl*td) * int64(nq)
			}
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// upwardDone starts an evaluation of e over dens on a lease of the given
// width and runs it to where the downward pass begins: densities
// permuted, upward pass done, upward densities exchanged through g (nil:
// the tree's own). The returned function ends the lease.
func upwardDone(tb testing.TB, e *Evaluator, dens [][]float64, g Ghost, lanes int) (*runState, func()) {
	tb.Helper()
	lease, err := e.pool.Acquire(bg, lanes)
	if err != nil {
		tb.Fatal(err)
	}
	k := e.opt.Kernel
	r := &runState{
		e: e, pool: lease, nrhs: len(dens),
		sd: k.SourceDim(), td: k.TargetDim(), ne: e.Ops.EquivCount(), nc: e.Ops.CheckCount(),
		workspace: new(workspace),
	}
	r.resetWorkspace(len(e.Tree.SrcPoints)/3, len(e.Tree.TrgPoints)/3, lease.MaxWidth())
	if r.g = g; g == nil {
		r.g = treeGhost{r}
	}
	for q := range dens {
		for i, orig := range e.Tree.SrcPerm {
			o := int(orig)
			copy(r.pdens[q][i*r.sd:(i+1)*r.sd], dens[q][o*r.sd:(o+1)*r.sd])
		}
	}
	if err := r.upwardPass(bg, nil); err != nil {
		tb.Fatal(err)
	}
	r.phiU = r.g.Exchange(r.localU)
	return r, lease.Release
}

// vSweep runs one V-list sweep of level l on r from cleared check
// potentials and returns copies of the level's check potentials (nil for
// a box the sweep did not write) and the flops the lanes counted.
func vSweep(tb testing.TB, r *runState, l int, sweep func(context.Context, int) error) ([][]float64, int64) {
	tb.Helper()
	t := r.e.Tree
	lo, hi := t.LevelStart[l], t.LevelStart[l+1]
	clear(r.checks[lo:hi])
	for i := range r.lanes {
		r.lanes[i].stats = Stats{}
	}
	if err := sweep(bg, l); err != nil {
		tb.Fatal(err)
	}
	out := make([][]float64, hi-lo)
	for bi := lo; bi < hi; bi++ {
		if r.checks[bi] != nil {
			out[bi-lo] = append([]float64(nil), r.checks[bi]...)
		}
	}
	var flops int64
	for i := range r.lanes {
		flops += r.lanes[i].stats.Flops()
	}
	return out, flops
}

// rankGhost stands for the other ranks of a distributed run at the
// exchange: every box that holds a source on some rank gets an upward
// density — the rank's own where it has one, made-up values elsewhere,
// which the V-list sweep reads like any other. The sweep reads no
// sources.
type rankGhost struct {
	gCnt []int64
	n    int // values per upward density: nrhs × EquivCount
	rng  *rand.Rand
}

func (g rankGhost) Exchange(phiU [][]float64) [][]float64 {
	out := make([][]float64, len(phiU))
	for bi, phi := range phiU {
		switch {
		case phi != nil:
			out[bi] = phi
		case g.gCnt[bi] > 0:
			out[bi] = geom.RandomDensities(g.rng, g.n, 1)
		}
	}
	return out
}

func (g rankGhost) Sources(int32, int) (pos, den []float64) {
	panic("the V-list sweep reads no sources")
}

func (g rankGhost) Counts(int32) (src, trg int) { panic("the V-list sweep reads no counts") }

// TestVSweepMatchesTargetMajor: the sibling-blocked V-list sweep writes
// every check potential bit for bit as the target-by-target sweep does
// and counts the same flops — for all four kernels, batches of one to
// five vectors (and nine, which crosses a right-hand-side chunk of the
// tensor kernels), one and two lanes, on a uniform tree, an adaptive
// corner tree and rank 0 of a two-rank global tree over the uniform
// points, whose upward densities come from a ghost and some of whose
// boxes list V members but hold no targets of the rank.
func TestVSweepMatchesTargetMajor(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	uniform := geom.Flatten(geom.UniformCube(rng, 1500))
	corners := geom.Flatten(geom.CornerClusters(rng, 1500, 1, 1))
	cfg := tree.Config{MaxPoints: 30}
	// Rank 0 holds the uniform points with x < 0.2; the global tree is
	// every rank's.
	var shares [2][]float64
	for i := 0; i < len(uniform); i += 3 {
		r := 1
		if uniform[i] < 0.2 {
			r = 0
		}
		shares[r] = append(shares[r], uniform[i:i+3]...)
	}
	var trees2 [2]*tree.Tree
	var counts [2][]int64
	var errs2 [2]error
	mpi.Run(2, mpi.Machine{Latency: time.Microsecond, Bandwidth: 1e9}, func(c *mpi.Comm) {
		r := c.Rank()
		trees2[r], counts[r], errs2[r] = tree.BuildGlobal(context.TODO(), c, shares[r], cfg)
	})
	for _, err := range errs2 {
		if err != nil {
			t.Fatal(err)
		}
	}
	rank0, gCnt := trees2[0], counts[0]
	// The corner tree is deep, but its V lists are all on level 2.
	trees := []struct {
		name    string
		build   func() (*tree.Tree, error)
		vLevels int
		ghost   bool
	}{
		{"uniform", func() (*tree.Tree, error) { return tree.BuildCtx(bg, uniform, uniform, cfg) }, 2, false},
		{"corners", func() (*tree.Tree, error) { return tree.BuildCtx(bg, corners, corners, cfg) }, 1, false},
		{"rank0of2", func() (*tree.Tree, error) { return rank0, nil }, 2, true},
	}
	ks := []kernels.Kernel{kernels.Laplace{}, kernels.NewModLaplace(1.5), kernels.NewStokes(0.7), kernels.NewKelvin(1.3, 0.3)}
	pool := exec.NewElastic(2)
	for _, tc := range trees {
		tr, err := tc.build()
		if err != nil {
			t.Fatal(err)
		}
		vLevels, idle := 0, 0
		for l := 2; l < tr.Depth(); l++ {
			nv := 0
			for bi := tr.LevelStart[l]; bi < tr.LevelStart[l+1]; bi++ {
				b := &tr.Boxes[bi]
				nv += len(b.V)
				if len(b.V) > 0 && b.TrgCount == 0 {
					idle++
				}
			}
			if nv > 0 {
				vLevels++
			}
		}
		if vLevels < tc.vLevels || tc.ghost && idle == 0 || tc.name == "corners" && tr.Depth() < 8 {
			t.Fatalf("%s: V lists on %d levels, %d V-listing boxes without targets: the tree does not test what it names", tc.name, vLevels, idle)
		}
		for _, k := range ks {
			e, err := FromTree(tr, Options{Kernel: k, Degree: 4, Pool: pool})
			if err != nil {
				t.Fatal(err)
			}
			if c := rhsChunk(9, 1, k.SourceDim(), k.TargetDim(), e.fft.GridLen()); k.TargetDim() > 1 && c >= 9 {
				t.Fatalf("%s: a batch of nine is one chunk of %d", k.Name(), c)
			}
			for _, nrhs := range []int{1, 2, 3, 4, 5, 9} {
				dens := make([][]float64, nrhs)
				for q := range dens {
					dens[q] = geom.RandomDensities(rng, len(tr.SrcPoints)/3, k.SourceDim())
				}
				for _, lanes := range []int{1, 2} {
					name := fmt.Sprintf("%s/%s/rhs%d/lanes%d", tc.name, k.Name(), nrhs, lanes)
					var g Ghost
					if tc.ghost {
						g = rankGhost{gCnt: gCnt, n: nrhs * e.Ops.EquivCount(), rng: rand.New(rand.NewSource(int64(nrhs)))}
					}
					r, release := upwardDone(t, e, dens, g, lanes)
					written := 0
					for l := 2; l < tr.Depth(); l++ {
						got, gotFlops := vSweep(t, r, l, r.applyM2LFFT)
						want, wantFlops := vSweep(t, r, l, r.applyM2LTargetMajor)
						if gotFlops != wantFlops {
							t.Errorf("%s level %d: %d flops, target-major %d", name, l, gotFlops, wantFlops)
						}
						for i := range want {
							if (got[i] == nil) != (want[i] == nil) {
								t.Fatalf("%s level %d box %d: written %v, target-major %v", name, l, tr.LevelStart[l]+i, got[i] != nil, want[i] != nil)
							}
							for j := range want[i] {
								if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
									t.Fatalf("%s level %d box %d: check value %d is %v, target-major %v", name, l, tr.LevelStart[l]+i, j, got[i][j], want[i][j])
								}
							}
							if want[i] != nil {
								written++
							}
						}
					}
					release()
					if written == 0 {
						t.Fatalf("%s: no V-list translation ran", name)
					}
				}
			}
		}
	}
}

// BenchmarkDownV times one warm V-list sweep of every level, one lane, on
// the tree and batch shapes of two repository benchmark workloads: 12 000
// uniform points with the Laplace kernel at degree 6 (lib_uniform_fft),
// and 3 000 points on spheres with the Stokes kernel at degree 5 in a
// batch of four (lib_stokes_batch). The other two are batches that
// rhsChunk's accumulator budget splits: the Stokes geometry at degree 6
// in a batch of four (two chunks of two) and at degree 5 in a batch of
// sixteen (chunks of six).
func BenchmarkDownV(b *testing.B) {
	for _, bc := range []struct {
		name   string
		pts    func(*rand.Rand) []float64
		k      kernels.Kernel
		degree int
		nrhs   int
	}{
		{"lib_uniform_fft", func(rng *rand.Rand) []float64 { return geom.Flatten(geom.UniformCube(rng, 12000)) }, kernels.Laplace{}, 6, 1},
		{"lib_stokes_batch", func(rng *rand.Rand) []float64 { return geom.Flatten(geom.SphereGrid(rng, 3000, 2, 0.3)) }, kernels.NewStokes(1), 5, 4},
		{"stokes_p6_nq4", func(rng *rand.Rand) []float64 { return geom.Flatten(geom.SphereGrid(rng, 3000, 2, 0.3)) }, kernels.NewStokes(1), 6, 4},
		{"stokes_p5_nq16", func(rng *rand.Rand) []float64 { return geom.Flatten(geom.SphereGrid(rng, 3000, 2, 0.3)) }, kernels.NewStokes(1), 5, 16},
	} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			pts := bc.pts(rng)
			e, err := NewCtx(bg, pts, pts, Options{Kernel: bc.k, Degree: bc.degree, MaxPoints: 60, Workers: 1, Pool: exec.NewElastic(1)})
			if err != nil {
				b.Fatal(err)
			}
			dens := make([][]float64, bc.nrhs)
			for q := range dens {
				dens[q] = geom.RandomDensities(rng, len(pts)/3, bc.k.SourceDim())
			}
			r, release := upwardDone(b, e, dens, nil, 1)
			defer release()
			sweep := func() {
				clear(r.checks)
				for l := 2; l < e.Tree.Depth(); l++ {
					if err := r.applyM2LFFT(bg, l); err != nil {
						b.Fatal(err)
					}
				}
			}
			sweep() // builds the level's tensors
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sweep()
			}
		})
	}
}
