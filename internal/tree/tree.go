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
// Points are permuted into Morton order so every box owns a contiguous
// range of the source and target arrays.
package tree

import (
	"context"
	"fmt"
	"sort"
	"unsafe"

	"repro/internal/morton"
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
	// point i.
	SrcPoints, TrgPoints []float64
	SrcPerm, TrgPerm     []int32

	index map[morton.Key]int32
}

// Config controls tree construction.
type Config struct {
	// MaxPoints is s, the maximum number of source (or target) points in
	// a leaf (paper notation). A box with more sources or more targets
	// than s is subdivided. Defaults to 60, the paper's usual choice.
	MaxPoints int
	// MaxDepth caps the tree depth (default and maximum morton.MaxLevel).
	MaxDepth int
	// Center/HalfWidth force the root cube; when HalfWidth is zero the
	// bounding cube of all points is used. The parallel algorithm passes
	// the globally agreed domain here.
	Center    [3]float64
	HalfWidth float64
}

type keyed struct {
	key  morton.Key
	orig int32
}

// BuildCtx constructs the adaptive octree over src and trg (flat x,y,z
// coordinate slices) and computes all four interaction lists. ctx is
// checked between the expensive stages (Morton sort, box construction,
// interaction lists) and inside the per-level loops of the latter two,
// so cancelling a pathological build (hundreds of millions of points,
// or an adversarial deep tree) lands within one level instead of after
// the whole construction. On cancellation the partial tree is discarded
// and ctx.Err() is returned.
func BuildCtx(ctx context.Context, src, trg []float64, cfg Config) (*Tree, error) {
	if len(src)%3 != 0 || len(trg)%3 != 0 {
		return nil, fmt.Errorf("tree: coordinate slices must have length divisible by 3")
	}
	if cfg.MaxPoints <= 0 {
		cfg.MaxPoints = 60
	}
	if cfg.MaxDepth <= 0 || cfg.MaxDepth > morton.MaxLevel {
		cfg.MaxDepth = morton.MaxLevel
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t := &Tree{MaxPoints: cfg.MaxPoints}
	if cfg.HalfWidth > 0 {
		t.Center, t.HalfWidth = cfg.Center, cfg.HalfWidth
	} else {
		all := make([]float64, 0, len(src)+len(trg))
		all = append(all, src...)
		all = append(all, trg...)
		t.Center, t.HalfWidth = boundingCube(all)
	}
	srcKeys := sortByKey(src, t.Center, t.HalfWidth)
	trgKeys := sortByKey(trg, t.Center, t.HalfWidth)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.SrcPoints, t.SrcPerm = permute(src, srcKeys)
	t.TrgPoints, t.TrgPerm = permute(trg, trgKeys)
	if err := t.build(ctx, srcKeys, trgKeys, cfg.MaxDepth); err != nil {
		return nil, err
	}
	if err := t.buildLists(ctx); err != nil {
		return nil, err
	}
	return t, nil
}

func boundingCube(pts []float64) ([3]float64, float64) {
	if len(pts) == 0 {
		return [3]float64{}, 1
	}
	lo := [3]float64{pts[0], pts[1], pts[2]}
	hi := lo
	for i := 0; i+2 < len(pts); i += 3 {
		for d := 0; d < 3; d++ {
			if pts[i+d] < lo[d] {
				lo[d] = pts[i+d]
			}
			if pts[i+d] > hi[d] {
				hi[d] = pts[i+d]
			}
		}
	}
	var c [3]float64
	hw := 0.0
	for d := 0; d < 3; d++ {
		c[d] = (lo[d] + hi[d]) / 2
		if w := (hi[d] - lo[d]) / 2; w > hw {
			hw = w
		}
	}
	if hw == 0 {
		hw = 1
	}
	return c, hw * (1 + 1e-10)
}

func sortByKey(pts []float64, c [3]float64, hw float64) []keyed {
	n := len(pts) / 3
	ks := make([]keyed, n)
	for i := 0; i < n; i++ {
		ks[i] = keyed{morton.PointKey(pts[3*i], pts[3*i+1], pts[3*i+2], c, hw), int32(i)}
	}
	sort.Slice(ks, func(a, b int) bool {
		if ks[a].key == ks[b].key {
			return ks[a].orig < ks[b].orig
		}
		return ks[a].key.Less(ks[b].key)
	})
	return ks
}

func permute(pts []float64, ks []keyed) ([]float64, []int32) {
	out := make([]float64, len(pts))
	perm := make([]int32, len(ks))
	for i, k := range ks {
		perm[i] = k.orig
		copy(out[3*i:3*i+3], pts[3*k.orig:3*k.orig+3])
	}
	return out, perm
}

// buildCheckEvery is how many boxes the per-level construction loops
// process between context checks: frequent enough that cancellation
// lands promptly even on a single enormous level, rare enough that the
// atomic load never shows up in profiles.
const buildCheckEvery = 1 << 12

// build creates boxes breadth-first, splitting every box whose source or
// target count exceeds MaxPoints, pruning empty octants. ctx is checked
// once per level and every buildCheckEvery boxes within a level.
func (t *Tree) build(ctx context.Context, srcKeys, trgKeys []keyed, maxDepth int) error {
	t.index = make(map[morton.Key]int32)
	root := Box{
		Key: morton.Key{}, Parent: Nil, Leaf: true,
		SrcStart: 0, SrcCount: len(srcKeys),
		TrgStart: 0, TrgCount: len(trgKeys),
	}
	for i := range root.Children {
		root.Children[i] = Nil
	}
	t.Boxes = []Box{root}
	t.index[root.Key] = 0
	t.LevelStart = []int{0}
	level := 0
	for start, end := 0, 1; start < end; start, end = end, len(t.Boxes) {
		t.LevelStart = append(t.LevelStart, end)
		level++
		if level > maxDepth {
			break
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		for bi := start; bi < end; bi++ {
			if (bi-start)%buildCheckEvery == buildCheckEvery-1 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			b := &t.Boxes[bi]
			if b.SrcCount <= t.MaxPoints && b.TrgCount <= t.MaxPoints {
				continue
			}
			b.Leaf = false
			childLevel := uint8(b.Level() + 1)
			// Split this box's contiguous ranges by child octant; the
			// Morton sort makes each child a contiguous subrange.
			srcSeg := srcKeys[b.SrcStart : b.SrcStart+b.SrcCount]
			trgSeg := trgKeys[b.TrgStart : b.TrgStart+b.TrgCount]
			srcOff, trgOff := b.SrcStart, b.TrgStart
			so, to := 0, 0
			for o := 0; o < 8; o++ {
				ck := b.Key.Child(o)
				sn := countPrefix(srcSeg[so:], ck, childLevel)
				tn := countPrefix(trgSeg[to:], ck, childLevel)
				if sn == 0 && tn == 0 {
					continue
				}
				child := Box{
					Key: ck, Parent: int32(bi), Leaf: true,
					SrcStart: srcOff + so, SrcCount: sn,
					TrgStart: trgOff + to, TrgCount: tn,
				}
				for i := range child.Children {
					child.Children[i] = Nil
				}
				ci := int32(len(t.Boxes))
				t.Boxes = append(t.Boxes, child)
				t.index[ck] = ci
				t.Boxes[bi].Children[o] = ci
				b = &t.Boxes[bi] // re-take: append may have moved the slice
				so += sn
				to += tn
			}
		}
	}
	// Normalize LevelStart to end with len(Boxes) exactly once.
	for len(t.LevelStart) > 1 && t.LevelStart[len(t.LevelStart)-1] == t.LevelStart[len(t.LevelStart)-2] {
		t.LevelStart = t.LevelStart[:len(t.LevelStart)-1]
	}
	if t.LevelStart[len(t.LevelStart)-1] != len(t.Boxes) {
		t.LevelStart = append(t.LevelStart, len(t.Boxes))
	}
	return nil
}

// countPrefix returns how many leading keys in seg are descendants of (or
// equal to) the child cell ck at the given level.
func countPrefix(seg []keyed, ck morton.Key, level uint8) int {
	n := 0
	for n < len(seg) && seg[n].key.AtLevel(level) == ck {
		n++
	}
	return n
}

// Assemble wraps an externally built box topology into a Tree and
// computes the interaction lists. The parallel algorithm uses it: every
// rank constructs the identical global tree array level by level (paper
// Section 3.1) with its own local point ranges in SrcStart/SrcCount (and
// TrgStart/TrgCount), then assembles the lists locally. Boxes must be in
// breadth-first order with levelStart offsets as produced by that
// construction; srcPoints/srcPerm are the rank's Morton-sorted local
// points (sources and targets are the same set in the parallel driver).
// ctx is checked during list construction as in BuildCtx.
func Assemble(ctx context.Context, center [3]float64, halfWidth float64, boxes []Box, levelStart []int, srcPoints []float64, srcPerm []int32, maxPoints int) (*Tree, error) {
	t := &Tree{
		Center: center, HalfWidth: halfWidth,
		Boxes: boxes, LevelStart: levelStart,
		MaxPoints: maxPoints,
		SrcPoints: srcPoints, TrgPoints: srcPoints,
		SrcPerm: srcPerm, TrgPerm: srcPerm,
		index: make(map[morton.Key]int32, len(boxes)),
	}
	for i := range boxes {
		t.index[boxes[i].Key] = int32(i)
	}
	if err := t.buildLists(ctx); err != nil {
		return nil, err
	}
	return t, nil
}

// SortPointsByKey Morton-sorts pts against the cube (center, halfWidth)
// and returns the permuted coordinates, the permutation (original index
// of each sorted point), and the sorted leaf-level keys. It is exported
// for the parallel tree construction, which must sort local points
// against the globally agreed domain.
func SortPointsByKey(pts []float64, center [3]float64, halfWidth float64) (sorted []float64, perm []int32, keys []morton.Key) {
	ks := sortByKey(pts, center, halfWidth)
	sorted, perm = permute(pts, ks)
	keys = make([]morton.Key, len(ks))
	for i := range ks {
		keys[i] = ks[i].key
	}
	return sorted, perm, keys
}

// CountRange returns how many keys in the sorted slice fall under the
// box key b (descendants at leaf resolution), searching within
// keys[lo:hi]. Keys must be Morton-sorted.
func CountRange(keys []morton.Key, lo, hi int, b morton.Key) int {
	n := 0
	for i := lo; i < hi; i++ {
		if keys[i].AtLevel(b.Level) == b {
			n++
		} else if n > 0 {
			break
		}
	}
	return n
}

// Depth returns the number of levels in the tree (root-only tree: 1).
func (t *Tree) Depth() int { return len(t.LevelStart) - 1 }

// Find returns the index of the box with the given key, or Nil.
func (t *Tree) Find(k morton.Key) int32 {
	if i, ok := t.index[k]; ok {
		return i
	}
	return Nil
}

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

// Leaves returns the indices of all leaf boxes.
func (t *Tree) Leaves() []int32 {
	var out []int32
	for i := range t.Boxes {
		if t.Boxes[i].Leaf {
			out = append(out, int32(i))
		}
	}
	return out
}

// MemoryBytes estimates the resident size of the tree: coordinates,
// permutations, the box array with its interaction lists, and the key
// index. The evaluation service uses it for byte-bounded plan caching.
func (t *Tree) MemoryBytes() int64 {
	b := int64(len(t.SrcPoints)+len(t.TrgPoints)) * 8
	b += int64(len(t.SrcPerm)+len(t.TrgPerm)) * 4
	b += int64(len(t.LevelStart)) * 8
	b += int64(len(t.Boxes)) * int64(unsafe.Sizeof(Box{}))
	for i := range t.Boxes {
		bx := &t.Boxes[i]
		b += int64(len(bx.U)+len(bx.V)+len(bx.W)+len(bx.X)) * 4
	}
	// Key index: ~key + value + bucket overhead per entry.
	b += int64(len(t.index)) * 24
	return b
}
