package parfmm

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/tree"
)

// TestGlobalTreeMatchesLocal: the global tree array every rank derives
// through tree.BuildGlobal is the tree BuildCtx builds over all the points
// — its domain, keys, parent/child links, LevelStart and interaction
// lists — and the global counts it returns are BuildCtx's SrcCount. Each
// rank holds its own points only, so the local counts sum to the global
// ones. At one rank the points and the permutation match bit for bit too.
func TestGlobalTreeMatchesLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	sets := []struct {
		name string
		pts  []float64
	}{
		{"uniform", geom.Flatten(geom.UniformCube(rng, 3000))},
		{"clustered", geom.Flatten(geom.CornerClusters(rng, 3000, 0.2, 1))},
	}
	cfg := tree.Config{MaxPoints: 25}
	for _, set := range sets {
		ref, err := tree.BuildCtx(context.Background(), set.pts, set.pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, nproc := range []int{1, 3} {
			inputs, _ := PartitionPoints(set.pts, make([]float64, len(set.pts)/3), 1, nproc)
			if nproc == 1 {
				inputs[0].Pts = set.pts // the caller's order, for the bitwise check
			}
			trees := make([]*tree.Tree, nproc)
			counts := make([][]int64, nproc)
			errs := make([]error, nproc)
			mpi.Run(nproc, fastMachine(), func(c *mpi.Comm) {
				r := c.Rank()
				trees[r], counts[r], errs[r] = tree.BuildGlobal(context.TODO(), c, inputs[r].Pts, cfg)
			})
			for r, tr := range trees {
				if errs[r] != nil {
					t.Fatalf("%s P=%d rank %d: %v", set.name, nproc, r, errs[r])
				}
				sameTopology(t, set.name, nproc, r, tr, counts[r], ref)
			}
			for bi := range ref.Boxes {
				var sum int64
				for _, tr := range trees {
					sum += int64(tr.Boxes[bi].SrcCount)
				}
				if sum != counts[0][bi] {
					t.Fatalf("%s P=%d box %d: local counts sum to %d, global %d", set.name, nproc, bi, sum, counts[0][bi])
				}
			}
			if nproc == 1 {
				tr := trees[0]
				if !reflect.DeepEqual(tr.SrcPerm, ref.SrcPerm) {
					t.Errorf("%s P=1: permutation differs from BuildCtx's", set.name)
				}
				for i, v := range tr.SrcPoints {
					if math.Float64bits(v) != math.Float64bits(ref.SrcPoints[i]) {
						t.Fatalf("%s P=1: sorted coordinate %d is %v, BuildCtx's %v", set.name, i, v, ref.SrcPoints[i])
					}
				}
			}
		}
	}
}

// sameTopology checks one rank's global tree against the local reference.
func sameTopology(t *testing.T, name string, nproc, r int, tr *tree.Tree, gCnt []int64, ref *tree.Tree) {
	t.Helper()
	if tr.Center != ref.Center || math.Float64bits(tr.HalfWidth) != math.Float64bits(ref.HalfWidth) {
		t.Fatalf("%s P=%d rank %d: domain %v±%v, BuildCtx %v±%v", name, nproc, r, tr.Center, tr.HalfWidth, ref.Center, ref.HalfWidth)
	}
	if !reflect.DeepEqual(tr.LevelStart, ref.LevelStart) || len(tr.Boxes) != len(ref.Boxes) || len(gCnt) != len(ref.Boxes) {
		t.Fatalf("%s P=%d rank %d: %d boxes, LevelStart %v, %d counts; BuildCtx %d boxes, LevelStart %v",
			name, nproc, r, len(tr.Boxes), tr.LevelStart, len(gCnt), len(ref.Boxes), ref.LevelStart)
	}
	for bi := range ref.Boxes {
		b, w := &tr.Boxes[bi], &ref.Boxes[bi]
		if b.Key != w.Key || b.Parent != w.Parent || b.Children != w.Children || b.Leaf != w.Leaf ||
			!reflect.DeepEqual(b.U, w.U) || !reflect.DeepEqual(b.V, w.V) ||
			!reflect.DeepEqual(b.W, w.W) || !reflect.DeepEqual(b.X, w.X) {
			t.Fatalf("%s P=%d rank %d: box %d differs from BuildCtx's", name, nproc, r, bi)
		}
		if gCnt[bi] != int64(w.SrcCount) {
			t.Fatalf("%s P=%d rank %d: box %d global count %d, BuildCtx SrcCount %d", name, nproc, r, bi, gCnt[bi], w.SrcCount)
		}
	}
}
