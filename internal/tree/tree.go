// Package tree builds the adaptive octree of the FMM and the four
// interaction lists the paper defines in Section 3.1:
//
//   - U list: for a leaf B, B itself and the leaf boxes adjacent to B;
//   - V list: the children of the neighbors of B's parent that are not
//     adjacent to B;
//   - W list: for a leaf B, the descendants of B's neighbors whose
//     parents are adjacent to B but which are not adjacent to B;
//   - X list: all boxes A such that B is in A's W list.
//
// Boxes are stored in level-by-level (breadth-first) order, matching the
// "global tree array" layout the parallel algorithm communicates with.
// One level loop builds every tree: BuildGlobal builds a rank's copy of
// the global tree array from counts summed across the ranks, and BuildCtx
// is its one-rank case. Points are permuted into Morton order so every
// box owns a contiguous range of the source and target arrays.
package tree

import (
	"context"
	"fmt"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/morton"
	"repro/internal/mpi"
)

// Nil marks an absent box index.
const Nil = int32(-1)

// Box is one node of the adaptive octree.
type Box struct {
	// Key identifies the box cell; Level() is Key.Level.
	Key morton.Key
	// Parent is the index of the parent box, Nil for the root.
	Parent int32
	// Children holds the indices of the (up to eight) children; Nil for
	// absent octants. Empty octants are pruned.
	Children [8]int32
	// Leaf reports whether the box was not subdivided.
	Leaf bool
	// SrcStart/SrcCount delimit this box's sources in Tree.SrcPoints.
	SrcStart, SrcCount int
	// TrgStart/TrgCount delimit this box's targets in Tree.TrgPoints.
	TrgStart, TrgCount int
	// U, V, W, X are the interaction lists (box indices). U and W are
	// populated only for leaves; X is the dual of W.
	U, V, W, X []int32
}

// Level returns the box depth (root = 0).
func (b *Box) Level() int { return int(b.Key.Level) }

// Tree is an adaptive octree over a set of source and target points.
type Tree struct {
	// Center and HalfWidth describe the root cube.
	Center    [3]float64
	HalfWidth float64
	// Boxes holds all boxes in breadth-first (level-by-level) order.
	Boxes []Box
	// LevelStart[l] is the index of the first box at level l;
	// LevelStart[len] = len(Boxes). Levels are contiguous by construction.
	LevelStart []int
	// MaxPoints is the leaf splitting threshold s.
	MaxPoints int
	// SrcPoints and TrgPoints are the coordinates permuted into Morton
	// order; SrcPerm[i] (TrgPerm[i]) is the original index of permuted
	// point i. When the targets are the sources, TrgPoints and TrgPerm
	// are SrcPoints and SrcPerm.
	SrcPoints, TrgPoints []float64
	SrcPerm, TrgPerm     []int32

	// col[colStart[b]:colStart[b+1]] are box b's colleagues (Colleagues).
	col, colStart []int32
}

// Config controls tree construction.
type Config struct {
	// MaxPoints is s, the maximum number of source (or target) points in
	// a leaf (paper notation). A box with more sources or more targets
	// than s is subdivided. Defaults to 60, the paper's usual choice.
	MaxPoints int
	// MaxDepth caps the tree depth (default and maximum morton.MaxLevel).
	MaxDepth int
}

// Reducer combines values across the ranks that build one global tree,
// as the paper's MPI_Allreduce: it sums their counts and takes the
// minimum and maximum of their bounds. mpi.Transport satisfies it.
type Reducer interface {
	AllreduceInt64(op mpi.ReduceOp, in []int64) []int64
	AllreduceFloat64(op mpi.ReduceOp, in []float64) []float64
}

// BuildCtx constructs the adaptive octree over src and trg (flat x,y,z
// coordinate slices) and computes all four interaction lists. It is the
// one-rank case of BuildGlobal. When trg is src, the same slice, the
// points are sorted and permuted once and the tree's target arrays are
// its source arrays. A NaN or infinite coordinate, or points spread too
// far for the domain's squared diameter to be finite, is an error.
//
// ctx is checked between the expensive stages (Morton sort, box
// construction, interaction lists) and inside the per-level loops of the
// latter two, so cancelling a pathological build (hundreds of millions of
// points, or an adversarial deep tree) lands within one level instead of
// after the whole construction. On cancellation the partial tree is
// discarded and ctx.Err() is returned.
func BuildCtx(ctx context.Context, src, trg []float64, cfg Config) (*Tree, error) {
	if len(src)%3 != 0 || len(trg)%3 != 0 {
		return nil, fmt.Errorf("tree: coordinate slices must have length divisible by 3")
	}
	t, _, err := build(ctx, nil, src, trg, cfg)
	return t, err
}

// BuildGlobal is one rank's share of the level-by-level construction of
// paper Section 3.1. pts are the rank's points, its sources and targets
// alike. Every rank calls it with the same cfg and issues, through red,
// the same collectives in the same order: the minimum and the maximum of
// its local bounds, which fix the domain; the root's point count; then,
// per level, the eight child counts of every box that splits, in octant
// order. Each rank so derives the identical global tree array: every box
// that holds a point on some rank, with this rank's points only. The
// interaction lists follow locally. BuildGlobal returns that tree and the
// global point count of every box.
//
// The input is not checked: a rank that rejected its share would leave
// its peers blocked between collectives. ctx is checked as in BuildCtx; a
// rank that returns on it leaves its peers likewise, which is safe
// because a cluster rank's error or cancellation aborts its whole job,
// and simulated ranks run under context.TODO.
func BuildGlobal(ctx context.Context, red Reducer, pts []float64, cfg Config) (*Tree, []int64, error) {
	return build(ctx, red, pts, pts, cfg)
}

// build is the one construction behind BuildCtx (red nil: the counts and
// bounds are this process's own) and BuildGlobal.
func build(ctx context.Context, red Reducer, src, trg []float64, cfg Config) (*Tree, []int64, error) {
	if cfg.MaxPoints <= 0 {
		cfg.MaxPoints = 60
	}
	if cfg.MaxDepth <= 0 || cfg.MaxDepth > morton.MaxLevel {
		cfg.MaxDepth = morton.MaxLevel
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	same := len(src) == len(trg) && (len(src) == 0 || &src[0] == &trg[0])
	sets := [][]float64{src}
	if !same {
		sets = append(sets, trg)
	}
	lo, hi, finite := geom.Bounds(sets...)
	if red != nil {
		copy(lo[:], red.AllreduceFloat64(mpi.OpMin, lo[:]))
		copy(hi[:], red.AllreduceFloat64(mpi.OpMax, hi[:]))
	}
	t := &Tree{MaxPoints: cfg.MaxPoints}
	t.Center, t.HalfWidth = geom.Cube(lo, hi)
	if red == nil {
		if err := geom.CheckDomain(finite, t.HalfWidth); err != nil {
			return nil, nil, fmt.Errorf("tree: %w", err)
		}
	}
	srcKeys := sortByKey(src, t.Center, t.HalfWidth)
	trgKeys := srcKeys
	if !same {
		trgKeys = sortByKey(trg, t.Center, t.HalfWidth)
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	t.SrcPoints, t.SrcPerm = permute(src, srcKeys), srcKeys.order
	t.TrgPoints, t.TrgPerm = t.SrcPoints, t.SrcPerm
	if !same {
		t.TrgPoints, t.TrgPerm = permute(trg, trgKeys), trgKeys.order
	}
	counts := []int64{int64(len(srcKeys.order))}
	if red != nil {
		counts = red.AllreduceInt64(mpi.OpSum, counts)
	}
	counts, err := t.grow(ctx, red, srcKeys, trgKeys, same, counts, cfg.MaxDepth)
	if err != nil {
		return nil, nil, err
	}
	if err := t.buildLists(ctx); err != nil {
		return nil, nil, err
	}
	return t, counts, nil
}

// sorted is one point set in Morton order: bits holds every point's
// MaxLevel key bits in input order, and order the input indices sorted by
// (bits, index). The tree stores order as the set's permutation.
type sorted struct {
	bits  []uint64
	order []int32
}

// radixBits is the digit width of sortByKey's passes: six passes cover
// the 63 key bits.
const radixBits = 11

// sortByKey computes the points' leaf-level keys and sorts their indices
// by a stable least-significant-digit radix sort on the key bits. The
// indices start in input order, so ties (points in one MaxLevel cell)
// keep it. One pass over the keys counts every digit; a digit that all
// keys share, every digit above the highest bit any key sets included,
// moves nothing and is skipped.
func sortByKey(pts []float64, c [3]float64, hw float64) sorted {
	const buckets = 1 << radixBits
	n := len(pts) / 3
	s := sorted{bits: make([]uint64, n), order: make([]int32, n)}
	var count [(3*morton.MaxLevel + radixBits - 1) / radixBits][buckets]int32
	for i := range s.bits {
		k := morton.PointKey(pts[3*i], pts[3*i+1], pts[3*i+2], c, hw).Bits
		s.bits[i] = k
		s.order[i] = int32(i)
		for d := range count {
			count[d][k>>(radixBits*d)%buckets]++
		}
	}
	var tmp []int32
	for d := range count {
		cnt := &count[d]
		if n == 0 || int(cnt[s.bits[0]>>(radixBits*d)%buckets]) == n {
			continue
		}
		var sum int32
		for i, c := range cnt {
			cnt[i] = sum
			sum += c
		}
		if tmp == nil {
			tmp = make([]int32, n)
		}
		for _, o := range s.order {
			dg := s.bits[o] >> (radixBits * d) % buckets
			tmp[cnt[dg]] = o
			cnt[dg]++
		}
		s.order, tmp = tmp, s.order
	}
	return s
}

// permute returns the points in s's order.
func permute(pts []float64, s sorted) []float64 {
	out := make([]float64, len(pts))
	for i, o := range s.order {
		out[3*i], out[3*i+1], out[3*i+2] = pts[3*o], pts[3*o+1], pts[3*o+2]
	}
	return out
}

// countPrefix returns how many of the sorted points from position lo on
// (and before hi) lie in the cell ck.
func (s sorted) countPrefix(lo, hi int, ck morton.Key) int {
	shift := 3 * uint(morton.MaxLevel-ck.Level)
	n := lo
	for n < hi && s.bits[s.order[n]]>>shift == ck.Bits {
		n++
	}
	return n - lo
}

// buildCheckEvery is how many boxes the per-level construction loops
// process between context checks: frequent enough that cancellation
// lands promptly even on a single enormous level, rare enough that the
// atomic load never shows up in profiles.
const buildCheckEvery = 1 << 12

// grow creates the boxes breadth-first. A box above level maxDepth
// splits when its global source count (gCnt, which holds the root's on
// entry) or, for separate targets, its target count exceeds MaxPoints.
// The level's local child counts, eight per splitting box, are summed by
// red; a child exists when its global count is nonzero (or it holds
// targets), so empty octants are pruned the same way on every rank. The
// Morton sort makes every child a contiguous subrange of its parent.
// grow returns gCnt extended to every box. ctx is checked once per level
// and every buildCheckEvery boxes within a level.
func (t *Tree) grow(ctx context.Context, red Reducer, srcKeys, trgKeys sorted, same bool, gCnt []int64, maxDepth int) ([]int64, error) {
	s := int64(t.MaxPoints)
	t.Boxes = []Box{newBox(morton.Key{}, Nil, 0, len(srcKeys.order), 0, len(trgKeys.order))}
	t.LevelStart = []int{0, 1}
	var splitting []int32
	for l := 0; l < maxDepth; l++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		start, end := t.LevelStart[l], t.LevelStart[l+1]
		splitting = splitting[:0]
		var local []int64
		for bi := start; bi < end; bi++ {
			if (bi-start)%buildCheckEvery == buildCheckEvery-1 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			b := &t.Boxes[bi]
			if gCnt[bi] <= s && (same || int64(b.TrgCount) <= s) {
				continue
			}
			splitting = append(splitting, int32(bi))
			lo, hi := b.SrcStart, b.SrcStart+b.SrcCount
			for o := 0; o < 8; o++ {
				n := srcKeys.countPrefix(lo, hi, b.Key.Child(o))
				local = append(local, int64(n))
				lo += n
			}
		}
		if len(splitting) == 0 {
			break
		}
		global := local
		if red != nil {
			global = red.AllreduceInt64(mpi.OpSum, local)
		}
		for si, bi := range splitting {
			b := t.Boxes[bi]
			t.Boxes[bi].Leaf = false
			so, to := b.SrcStart, b.TrgStart
			for o := 0; o < 8; o++ {
				ck := b.Key.Child(o)
				sn := int(local[8*si+o])
				tn := sn
				if !same {
					tn = trgKeys.countPrefix(to, b.TrgStart+b.TrgCount, ck)
				}
				if global[8*si+o] == 0 && tn == 0 {
					continue
				}
				ci := int32(len(t.Boxes))
				t.Boxes = append(t.Boxes, newBox(ck, bi, so, sn, to, tn))
				t.Boxes[bi].Children[o] = ci
				gCnt = append(gCnt, global[8*si+o])
				so += sn
				to += tn
			}
		}
		t.LevelStart = append(t.LevelStart, len(t.Boxes))
	}
	return gCnt, nil
}

// newBox returns a leaf with no children.
func newBox(k morton.Key, parent int32, srcStart, srcCount, trgStart, trgCount int) Box {
	b := Box{
		Key: k, Parent: parent, Leaf: true,
		SrcStart: srcStart, SrcCount: srcCount,
		TrgStart: trgStart, TrgCount: trgCount,
	}
	for i := range b.Children {
		b.Children[i] = Nil
	}
	return b
}

// Depth returns the number of levels in the tree (root-only tree: 1).
func (t *Tree) Depth() int { return len(t.LevelStart) - 1 }

// BoxCenter returns the center coordinates of box bi.
func (t *Tree) BoxCenter(bi int32) [3]float64 {
	b := &t.Boxes[bi]
	ix, iy, iz := b.Key.Decode()
	w := t.HalfWidth * 2 / float64(uint64(1)<<uint(b.Level()))
	return [3]float64{
		t.Center[0] - t.HalfWidth + (float64(ix)+0.5)*w,
		t.Center[1] - t.HalfWidth + (float64(iy)+0.5)*w,
		t.Center[2] - t.HalfWidth + (float64(iz)+0.5)*w,
	}
}

// BoxHalfWidth returns the half-width of a box at the given level.
func (t *Tree) BoxHalfWidth(level int) float64 {
	return t.HalfWidth / float64(uint64(1)<<uint(level))
}

// SrcSlice returns the permuted source coordinates of box bi.
func (t *Tree) SrcSlice(bi int32) []float64 {
	b := &t.Boxes[bi]
	return t.SrcPoints[3*b.SrcStart : 3*(b.SrcStart+b.SrcCount)]
}

// TrgSlice returns the permuted target coordinates of box bi.
func (t *Tree) TrgSlice(bi int32) []float64 {
	b := &t.Boxes[bi]
	return t.TrgPoints[3*b.TrgStart : 3*(b.TrgStart+b.TrgCount)]
}

// Colleagues returns box bi's colleagues, the paper's "neighbors": the
// boxes of its level adjacent to it, itself excluded, in the order the
// lists are built from (siblings in octant order, then the children of
// each of the parent's colleagues in turn). The root has none. A box's V
// list is the children of its parent's colleagues, in this order, that
// are not adjacent to it. The slice is the tree's; do not modify it.
func (t *Tree) Colleagues(bi int32) []int32 {
	lo, hi := t.colStart[bi], t.colStart[bi+1]
	return t.col[lo:hi:hi]
}

// MemoryBytes estimates the resident size of the tree: coordinates,
// permutations (target arrays shared with the sources count once), the
// box array with its interaction lists and the colleague lists. The
// evaluation service uses it for byte-bounded plan caching.
func (t *Tree) MemoryBytes() int64 {
	b := int64(len(t.SrcPoints))*8 + int64(len(t.SrcPerm))*4
	if !t.sharesTargets() {
		b += int64(len(t.TrgPoints))*8 + int64(len(t.TrgPerm))*4
	}
	b += int64(len(t.LevelStart))*8 + int64(len(t.col)+len(t.colStart))*4
	b += int64(len(t.Boxes)) * int64(unsafe.Sizeof(Box{}))
	for i := range t.Boxes {
		bx := &t.Boxes[i]
		b += int64(len(bx.U)+len(bx.V)+len(bx.W)+len(bx.X)) * 4
	}
	return b
}

// sharesTargets reports whether the target arrays are the source arrays.
func (t *Tree) sharesTargets() bool {
	return len(t.TrgPoints) == len(t.SrcPoints) && (len(t.SrcPoints) == 0 || &t.TrgPoints[0] == &t.SrcPoints[0])
}
