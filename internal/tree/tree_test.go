package tree

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/morton"
)

func buildRandom(t *testing.T, n, s int, clustered bool, seed int64) *Tree {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var pts []float64
	if clustered {
		pts = geom.Flatten(geom.CornerClusters(rng, n, 0.3, 1))
	} else {
		pts = geom.Flatten(geom.UniformCube(rng, n))
	}
	tr, err := BuildCtx(context.Background(), pts, pts, Config{MaxPoints: s})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestEveryPointInExactlyOneLeaf(t *testing.T) {
	tr := buildRandom(t, 2000, 30, true, 1)
	coveredSrc := make([]int, len(tr.SrcPoints)/3)
	for _, li := range tr.Leaves() {
		b := &tr.Boxes[li]
		for i := b.SrcStart; i < b.SrcStart+b.SrcCount; i++ {
			coveredSrc[i]++
		}
	}
	for i, c := range coveredSrc {
		if c != 1 {
			t.Fatalf("source %d covered by %d leaves", i, c)
		}
	}
}

func TestLeafCountsRespectThreshold(t *testing.T) {
	s := 25
	tr := buildRandom(t, 3000, s, false, 2)
	for _, li := range tr.Leaves() {
		b := &tr.Boxes[li]
		if b.Level() < morton.MaxLevel && (b.SrcCount > s || b.TrgCount > s) {
			t.Fatalf("leaf %d exceeds threshold: src=%d trg=%d", li, b.SrcCount, b.TrgCount)
		}
	}
}

func TestParentChildRangesNest(t *testing.T) {
	tr := buildRandom(t, 2000, 40, true, 3)
	for bi := range tr.Boxes {
		b := &tr.Boxes[bi]
		if b.Leaf {
			continue
		}
		srcSum, trgSum := 0, 0
		for _, c := range b.Children {
			if c == Nil {
				continue
			}
			cb := &tr.Boxes[c]
			if cb.Parent != int32(bi) {
				t.Fatalf("child %d has wrong parent", c)
			}
			if cb.SrcStart < b.SrcStart || cb.SrcStart+cb.SrcCount > b.SrcStart+b.SrcCount {
				t.Fatalf("child src range escapes parent")
			}
			srcSum += cb.SrcCount
			trgSum += cb.TrgCount
			if !b.Key.IsAncestorOf(cb.Key) {
				t.Fatalf("child key not under parent key")
			}
		}
		if srcSum != b.SrcCount || trgSum != b.TrgCount {
			t.Fatalf("children do not partition parent points: %d/%d src, %d/%d trg",
				srcSum, b.SrcCount, trgSum, b.TrgCount)
		}
	}
}

func TestPointsInsideTheirBoxes(t *testing.T) {
	tr := buildRandom(t, 1000, 20, false, 4)
	for bi := range tr.Boxes {
		b := &tr.Boxes[bi]
		c := tr.BoxCenter(int32(bi))
		hw := tr.BoxHalfWidth(b.Level()) * (1 + 1e-12)
		pts := tr.SrcSlice(int32(bi))
		for i := 0; i+2 < len(pts); i += 3 {
			for d := 0; d < 3; d++ {
				if pts[i+d] < c[d]-hw || pts[i+d] > c[d]+hw {
					t.Fatalf("box %d: point coordinate %v outside [%v,%v]", bi, pts[i+d], c[d]-hw, c[d]+hw)
				}
			}
		}
	}
}

func TestLevelStartIsBreadthFirst(t *testing.T) {
	tr := buildRandom(t, 4000, 30, true, 5)
	for l := 0; l < tr.Depth(); l++ {
		for bi := tr.LevelStart[l]; bi < tr.LevelStart[l+1]; bi++ {
			if tr.Boxes[bi].Level() != l {
				t.Fatalf("box %d at level %d filed under level %d", bi, tr.Boxes[bi].Level(), l)
			}
		}
	}
	if tr.LevelStart[len(tr.LevelStart)-1] != len(tr.Boxes) {
		t.Fatal("LevelStart must end at len(Boxes)")
	}
}

func TestAdjacency(t *testing.T) {
	root := morton.Key{}
	a := root.Child(0) // octant (0,0,0) at level 1
	b := root.Child(7) // octant (1,1,1): touches a at the center corner
	if !Adjacent(a, b) {
		t.Error("diagonal octants share the center point and are adjacent")
	}
	deep := b.Child(7).Child(7) // far corner of the domain
	if Adjacent(a, deep) {
		t.Error("far corner cell is not adjacent to opposite octant")
	}
	if !Adjacent(a, b.Child(0)) {
		t.Error("child at shared corner must be adjacent")
	}
	if !Adjacent(root, deep) {
		t.Error("every cell is adjacent to an enclosing ancestor")
	}
	if !Adjacent(a, a) {
		t.Error("a box is adjacent to itself")
	}
}

// TestInteractionListsPartition is the fundamental correctness theorem of
// the adaptive FMM: for every leaf L and every source leaf S, the pair is
// covered by exactly one interaction path:
//
//	U:  S ∈ U(L)                              (direct)
//	V:  B ∈ V(A) for ancestors-or-self A of L, B of S  (M2L + L2L chain)
//	W:  B ∈ W(L) for an ancestor-or-self B of S        (M2T)
//	X:  S ∈ X(A) for an ancestor-or-self A of L        (S2L + L2L chain)
func TestInteractionListsPartition(t *testing.T) {
	for _, tc := range []struct {
		name      string
		clustered bool
		n, s      int
		seed      int64
	}{
		{"uniform", false, 800, 20, 10},
		{"clustered", true, 800, 15, 11},
		{"tiny", false, 50, 5, 12},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := buildRandom(t, tc.n, tc.s, tc.clustered, tc.seed)
			leaves := tr.Leaves()
			ancestors := func(b int32) []int32 {
				out := []int32{b}
				for p := tr.Boxes[b].Parent; p != Nil; p = tr.Boxes[p].Parent {
					out = append(out, p)
				}
				return out
			}
			inList := func(list []int32, x int32) bool {
				for _, v := range list {
					if v == x {
						return true
					}
				}
				return false
			}
			for _, L := range leaves {
				ancL := ancestors(L)
				for _, S := range leaves {
					ancS := ancestors(S)
					count := 0
					kind := ""
					if inList(tr.Boxes[L].U, S) {
						count++
						kind += "U"
					}
					for _, a := range ancL {
						for _, b := range ancS {
							if inList(tr.Boxes[a].V, b) {
								count++
								kind += "V"
							}
						}
					}
					for _, b := range ancS {
						if inList(tr.Boxes[L].W, b) {
							count++
							kind += "W"
						}
					}
					for _, a := range ancL {
						if inList(tr.Boxes[a].X, S) {
							count++
							kind += "X"
						}
					}
					if count != 1 {
						t.Fatalf("leaf pair (%d,%d) covered %d times (%s)", L, S, count, kind)
					}
				}
			}
		})
	}
}

func TestListGeometryInvariants(t *testing.T) {
	tr := buildRandom(t, 1500, 25, true, 13)
	for bi := range tr.Boxes {
		b := &tr.Boxes[bi]
		for _, v := range b.V {
			vb := &tr.Boxes[v]
			if vb.Level() != b.Level() {
				t.Fatalf("V-list member at different level")
			}
			if Adjacent(b.Key, vb.Key) {
				t.Fatalf("V-list member adjacent to box")
			}
			if b.Parent != Nil && vb.Parent != Nil && !Adjacent(tr.Boxes[b.Parent].Key, tr.Boxes[vb.Parent].Key) {
				t.Fatalf("V-list member's parent not adjacent to box's parent")
			}
		}
		for _, u := range b.U {
			if !tr.Boxes[u].Leaf {
				t.Fatalf("U-list member must be a leaf")
			}
			if !Adjacent(b.Key, tr.Boxes[u].Key) {
				t.Fatalf("U-list member must be adjacent")
			}
		}
		for _, w := range b.W {
			wb := &tr.Boxes[w]
			if wb.Level() <= b.Level() {
				t.Fatalf("W-list member must be finer than the leaf")
			}
			if Adjacent(b.Key, wb.Key) {
				t.Fatalf("W-list member must not be adjacent")
			}
			if wb.Parent == Nil || !Adjacent(b.Key, tr.Boxes[wb.Parent].Key) {
				t.Fatalf("W-list member's parent must be adjacent")
			}
		}
		if !b.Leaf && (len(b.U) > 0 || len(b.W) > 0) {
			t.Fatalf("non-leaf boxes have empty U and W lists")
		}
	}
	// X is the exact dual of W.
	wPairs := map[[2]int32]bool{}
	for bi := range tr.Boxes {
		for _, w := range tr.Boxes[bi].W {
			wPairs[[2]int32{int32(bi), w}] = true
		}
	}
	xCount := 0
	for bi := range tr.Boxes {
		for _, x := range tr.Boxes[bi].X {
			if !wPairs[[2]int32{x, int32(bi)}] {
				t.Fatalf("X pair (%d,%d) without matching W", bi, x)
			}
			xCount++
		}
	}
	if xCount != len(wPairs) {
		t.Fatalf("X/W duality broken: %d vs %d", xCount, len(wPairs))
	}
}

func TestVListBoundedBy189(t *testing.T) {
	// On any octree, |V| <= 6³ - 3³ = 189 (the paper's V list comes from
	// the 189 non-adjacent children of the parent's 26 neighbors).
	tr := buildRandom(t, 5000, 20, false, 14)
	for bi := range tr.Boxes {
		if len(tr.Boxes[bi].V) > 189 {
			t.Fatalf("V list of box %d has %d > 189 entries", bi, len(tr.Boxes[bi].V))
		}
	}
}

func TestPermutationIsBijection(t *testing.T) {
	tr := buildRandom(t, 700, 30, true, 15)
	seen := make([]bool, len(tr.SrcPerm))
	for _, p := range tr.SrcPerm {
		if seen[p] {
			t.Fatal("permutation repeats an index")
		}
		seen[p] = true
	}
}

func TestDegenerateInputs(t *testing.T) {
	// All points coincident: the tree must stop at MaxDepth, not loop.
	pts := make([]float64, 3*100)
	for i := range pts {
		pts[i] = 0.5
	}
	tr, err := BuildCtx(context.Background(), pts, pts, Config{MaxPoints: 10, MaxDepth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Depth() > 7 {
		t.Fatalf("depth %d exceeds MaxDepth+1", tr.Depth())
	}
	// Empty input.
	tr, err = BuildCtx(context.Background(), nil, nil, Config{MaxPoints: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Boxes) != 1 || !tr.Boxes[0].Leaf {
		t.Fatal("empty input must produce a single leaf root")
	}
	// Single point.
	tr, err = BuildCtx(context.Background(), []float64{0.1, 0.2, 0.3}, []float64{0.1, 0.2, 0.3}, Config{MaxPoints: 10})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Boxes[0].SrcCount != 1 {
		t.Fatal("single point lost")
	}
	// Invalid coordinate slice.
	if _, err := BuildCtx(context.Background(), []float64{1, 2}, nil, Config{}); err == nil {
		t.Fatal("want error for malformed coordinates")
	}
}

func TestDistinctSourceAndTargetSets(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	src := geom.Flatten(geom.UniformCube(rng, 300))
	trg := geom.Flatten(geom.CornerClusters(rng, 200, 0.4, 1))
	tr, err := BuildCtx(context.Background(), src, trg, Config{MaxPoints: 15})
	if err != nil {
		t.Fatal(err)
	}
	nSrc, nTrg := 0, 0
	for _, li := range tr.Leaves() {
		nSrc += tr.Boxes[li].SrcCount
		nTrg += tr.Boxes[li].TrgCount
	}
	if nSrc != 300 || nTrg != 200 {
		t.Fatalf("leaf totals %d/%d, want 300/200", nSrc, nTrg)
	}
}

// countdownCtx reports cancellation from its (budget+1)-th Err() call
// on — a deterministic way to land a cancellation in the middle of a
// build, past the up-front stage-boundary checks.
type countdownCtx struct {
	context.Context
	budget int
	calls  int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.budget {
		return context.Canceled
	}
	return nil
}

// TestBuildCtxCancellation: a cancelled context aborts the construction
// (pre-cancelled up front, and mid-build via a context that fires during
// the per-level loops), returning ctx.Err() instead of a tree.
func TestBuildCtxCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pts := geom.Flatten(geom.UniformCube(rng, 3000))

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if tr, err := BuildCtx(ctx, pts, pts, Config{MaxPoints: 10}); !errors.Is(err, context.Canceled) || tr != nil {
		t.Fatalf("pre-cancelled BuildCtx = (%v, %v), want (nil, context.Canceled)", tr, err)
	}

	// A context that starts failing only after the up-front checks have
	// passed: the abort can then only come from the per-level loop
	// checks, proving they exist (MaxPoints 1 forces deep subdivision,
	// so several levels are visited).
	cctx := &countdownCtx{Context: context.Background(), budget: 3}
	if _, err := BuildCtx(cctx, pts, pts, Config{MaxPoints: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-build cancel err = %v, want context.Canceled", err)
	}
	if cctx.calls <= 3 {
		t.Fatalf("cancellation fired on call %d, before the per-level loops", cctx.calls)
	}

	// And an uncancelled BuildCtx matches Build.
	tr, err := BuildCtx(context.Background(), pts, pts, Config{MaxPoints: 30})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := BuildCtx(context.Background(), pts, pts, Config{MaxPoints: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Boxes) != len(ref.Boxes) || tr.Depth() != ref.Depth() {
		t.Errorf("BuildCtx tree shape (%d boxes, depth %d) != Build (%d, %d)",
			len(tr.Boxes), tr.Depth(), len(ref.Boxes), ref.Depth())
	}
}

// TestSmallLeafBoundary pins the point-to-point W/X rule at its edge: a
// leaf goes direct while it holds fewer points than the surface has, a
// leaf with exactly as many keeps the surface, and a non-leaf never goes
// direct however few points it has.
func TestSmallLeafBoundary(t *testing.T) {
	const surfN = 152 // degree 6
	leaf, inner := Box{Leaf: true}, Box{}
	for _, tc := range []struct {
		b     *Box
		count int
		want  bool
	}{
		{&leaf, 0, true},
		{&leaf, surfN - 1, true},
		{&leaf, surfN, false},
		{&leaf, surfN + 1, false},
		{&inner, 0, false},
		{&inner, surfN - 1, false},
	} {
		if got := tc.b.SmallLeaf(tc.count, surfN); got != tc.want {
			t.Errorf("SmallLeaf(leaf=%v, count=%d) = %v, want %v", tc.b.Leaf, tc.count, got, tc.want)
		}
	}
}
