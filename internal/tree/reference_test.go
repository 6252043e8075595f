package tree

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/morton"
)

// The reference builder below is the specification BuildCtx must meet
// bit for bit, written the plain way: a comparison sort of (key, index)
// pairs, boxes split by scanning those pairs, and lists that decode both
// keys of every adjacency test and keep a map per U list.

type refKeyed struct {
	key  morton.Key
	orig int32
}

func refSortByKey(pts []float64, c [3]float64, hw float64) []refKeyed {
	n := len(pts) / 3
	ks := make([]refKeyed, n)
	for i := 0; i < n; i++ {
		ks[i] = refKeyed{morton.PointKey(pts[3*i], pts[3*i+1], pts[3*i+2], c, hw), int32(i)}
	}
	sort.Slice(ks, func(a, b int) bool {
		if ks[a].key == ks[b].key {
			return ks[a].orig < ks[b].orig
		}
		return ks[a].key.Less(ks[b].key)
	})
	return ks
}

// Adjacent reports whether the closed cells of boxes a and b intersect
// (share at least a face, edge or corner point). Boxes at different
// levels are compared by aligning both to the finer resolution.
func Adjacent(a, b morton.Key) bool { return anchorOf(a).touches(anchorOf(b)) }

// refAtLevel returns the key of k's enclosing box at the coarser level.
func refAtLevel(k morton.Key, level uint8) morton.Key {
	return morton.Key{Level: level, Bits: k.Bits >> (3 * uint(k.Level-level))}
}

func refCountPrefix(seg []refKeyed, ck morton.Key) int {
	n := 0
	for n < len(seg) && refAtLevel(seg[n].key, ck.Level) == ck {
		n++
	}
	return n
}

// refBuild is one-rank tree construction: the permutations, the boxes
// and the four lists.
func refBuild(src, trg []float64, cfg Config) *Tree {
	if cfg.MaxPoints <= 0 {
		cfg.MaxPoints = 60
	}
	if cfg.MaxDepth <= 0 || cfg.MaxDepth > morton.MaxLevel {
		cfg.MaxDepth = morton.MaxLevel
	}
	same := len(src) == len(trg) && (len(src) == 0 || &src[0] == &trg[0])
	sets := [][]float64{src}
	if !same {
		sets = append(sets, trg)
	}
	lo, hi, _ := geom.Bounds(sets...)
	t := &Tree{MaxPoints: cfg.MaxPoints}
	t.Center, t.HalfWidth = geom.Cube(lo, hi)
	srcKeys := refSortByKey(src, t.Center, t.HalfWidth)
	trgKeys := srcKeys
	if !same {
		trgKeys = refSortByKey(trg, t.Center, t.HalfWidth)
	}
	for _, k := range srcKeys {
		t.SrcPerm = append(t.SrcPerm, k.orig)
	}
	for _, k := range trgKeys {
		t.TrgPerm = append(t.TrgPerm, k.orig)
	}

	s := t.MaxPoints
	t.Boxes = []Box{newBox(morton.Key{}, Nil, 0, len(srcKeys), 0, len(trgKeys))}
	t.LevelStart = []int{0, 1}
	for l := 0; l < cfg.MaxDepth; l++ {
		start, end := t.LevelStart[l], t.LevelStart[l+1]
		for bi := start; bi < end; bi++ {
			b := t.Boxes[bi]
			if b.SrcCount <= s && b.TrgCount <= s {
				continue
			}
			t.Boxes[bi].Leaf = false
			srcSeg := srcKeys[b.SrcStart : b.SrcStart+b.SrcCount]
			trgSeg := trgKeys[b.TrgStart : b.TrgStart+b.TrgCount]
			so, to := b.SrcStart, b.TrgStart
			for o := 0; o < 8; o++ {
				ck := b.Key.Child(o)
				sn := refCountPrefix(srcSeg, ck)
				srcSeg = srcSeg[sn:]
				tn := refCountPrefix(trgSeg, ck)
				trgSeg = trgSeg[tn:]
				if sn == 0 && tn == 0 {
					continue
				}
				t.Boxes[bi].Children[o] = int32(len(t.Boxes))
				t.Boxes = append(t.Boxes, newBox(ck, int32(bi), so, sn, to, tn))
				so += sn
				to += tn
			}
		}
		if len(t.Boxes) == end {
			break
		}
		t.LevelStart = append(t.LevelStart, len(t.Boxes))
	}
	refLists(t)
	return t
}

func refLists(t *Tree) {
	colleagues := refColleagues(t)
	for bi := range t.Boxes {
		b := &t.Boxes[bi]
		if b.Parent != Nil {
			for _, pc := range colleagues[b.Parent] {
				for _, a := range t.Boxes[pc].Children {
					if a != Nil && !Adjacent(b.Key, t.Boxes[a].Key) {
						b.V = append(b.V, a)
					}
				}
			}
		}
		if !b.Leaf {
			continue
		}
		b.U = refAdjacentLeaves(t, int32(bi), colleagues)
		for _, c := range colleagues[bi] {
			refCollectW(t, b, c)
		}
	}
	for bi := range t.Boxes {
		for _, w := range t.Boxes[bi].W {
			t.Boxes[w].X = append(t.Boxes[w].X, int32(bi))
		}
	}
}

func refColleagues(t *Tree) [][]int32 {
	out := make([][]int32, len(t.Boxes))
	for bi := range t.Boxes {
		b := &t.Boxes[bi]
		if b.Parent == Nil {
			continue
		}
		consider := func(ci int32) {
			if ci != Nil && ci != int32(bi) && Adjacent(b.Key, t.Boxes[ci].Key) {
				out[bi] = append(out[bi], ci)
			}
		}
		for _, s := range t.Boxes[b.Parent].Children {
			consider(s)
		}
		for _, pc := range out[b.Parent] {
			for _, c := range t.Boxes[pc].Children {
				consider(c)
			}
		}
	}
	return out
}

func refAdjacentLeaves(t *Tree, bi int32, colleagues [][]int32) []int32 {
	b := &t.Boxes[bi]
	seen := map[int32]bool{bi: true}
	u := []int32{bi}
	add := func(x int32) {
		if !seen[x] {
			seen[x] = true
			u = append(u, x)
		}
	}
	var descend func(ci int32)
	descend = func(ci int32) {
		c := &t.Boxes[ci]
		if !Adjacent(b.Key, c.Key) {
			return
		}
		if c.Leaf {
			add(ci)
			return
		}
		for _, ch := range c.Children {
			if ch != Nil {
				descend(ch)
			}
		}
	}
	for _, c := range colleagues[bi] {
		descend(c)
	}
	for p := b.Parent; p != Nil; p = t.Boxes[p].Parent {
		for _, c := range colleagues[p] {
			if t.Boxes[c].Leaf && Adjacent(b.Key, t.Boxes[c].Key) {
				add(c)
			}
		}
	}
	return u
}

func refCollectW(t *Tree, b *Box, c int32) {
	cb := &t.Boxes[c]
	if cb.Leaf {
		return
	}
	for _, ch := range cb.Children {
		if ch == Nil {
			continue
		}
		if Adjacent(b.Key, t.Boxes[ch].Key) {
			refCollectW(t, b, ch)
		} else {
			b.W = append(b.W, ch)
		}
	}
}

// TestBuildMatchesReference holds BuildCtx to the reference builder:
// the same permutations, level starts and boxes (keys, parents,
// children, ranges) and the same four lists element by element, in
// order, since the engine accumulates in list order.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	uniform := geom.Flatten(geom.UniformCube(rng, 5000))
	corners := geom.Flatten(geom.CornerClusters(rng, 6000, 0.1, 1))
	spheres := geom.Flatten(geom.SphereGrid(rng, 3000, 2, 0.3))
	targets := geom.Flatten(geom.UniformCube(rng, 1500))
	// Duplicates: 400 points drawn from 60 distinct ones, so many
	// MaxLevel cells hold several points whose order is their index.
	var dups []float64
	for i := 0; i < 400; i++ {
		j := rng.Intn(60)
		dups = append(dups, uniform[3*j:3*j+3]...)
	}
	coincident := make([]float64, 3*300)
	for i := range coincident {
		coincident[i] = []float64{0.25, -0.5, 0.75}[i%3]
	}
	// Two far-apart coincident clumps: the tree runs to MaxLevel.
	var clumps []float64
	for i := 0; i < 200; i++ {
		clumps = append(clumps, 0.1, 0.2, 0.3)
		clumps = append(clumps, -0.9, 0.8, -0.7)
	}
	cases := []struct {
		name     string
		src, trg []float64
		cfg      Config
		minDepth int
	}{
		{"uniform", uniform, uniform, Config{MaxPoints: 30}, 4},
		{"corners", corners, corners, Config{MaxPoints: 20}, 20},
		{"spheres", spheres, spheres, Config{MaxPoints: 25}, 4},
		{"spheres_targets", spheres, targets, Config{MaxPoints: 25}, 4},
		{"corners_targets", corners, targets, Config{MaxPoints: 40}, 4},
		{"duplicates", dups, dups, Config{MaxPoints: 3}, 4},
		{"coincident", coincident, coincident, Config{MaxPoints: 10}, morton.MaxLevel + 1},
		{"clumps", clumps, clumps, Config{MaxPoints: 50}, morton.MaxLevel + 1},
		{"empty", []float64{}, []float64{}, Config{}, 1},
		{"one", uniform[:3], uniform[:3], Config{MaxPoints: 1}, 1},
		{"one_target", uniform[:3], targets[:3], Config{MaxPoints: 1}, 1},
		{"corners_depth6", corners, corners, Config{MaxPoints: 20, MaxDepth: 6}, 7},
		{"coincident_depth3", coincident, coincident, Config{MaxPoints: 10, MaxDepth: 3}, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, err := BuildCtx(context.Background(), c.src, c.trg, c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got.Depth() < c.minDepth {
				t.Fatalf("depth %d, want >= %d: the case does not test what it names", got.Depth(), c.minDepth)
			}
			if err := sameTree(got, refBuild(c.src, c.trg, c.cfg)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// sameTree reports the first difference between two trees' permutations,
// levels, boxes, colleagues and lists. want is a reference tree, whose
// colleagues refColleagues recomputes.
func sameTree(got, want *Tree) error {
	if !slices.Equal(got.SrcPerm, want.SrcPerm) {
		return fmt.Errorf("SrcPerm differs")
	}
	if !slices.Equal(got.TrgPerm, want.TrgPerm) {
		return fmt.Errorf("TrgPerm differs")
	}
	if !slices.Equal(got.LevelStart, want.LevelStart) {
		return fmt.Errorf("LevelStart %v, want %v", got.LevelStart, want.LevelStart)
	}
	if len(got.Boxes) != len(want.Boxes) {
		return fmt.Errorf("%d boxes, want %d", len(got.Boxes), len(want.Boxes))
	}
	wantCol := refColleagues(want)
	for i := range got.Boxes {
		if c := got.Colleagues(int32(i)); !slices.Equal(c, wantCol[i]) {
			return fmt.Errorf("box %d: colleagues %v, want %v", i, c, wantCol[i])
		}
		g, w := got.Boxes[i], want.Boxes[i]
		if g.Key != w.Key || g.Parent != w.Parent || g.Children != w.Children || g.Leaf != w.Leaf ||
			g.SrcStart != w.SrcStart || g.SrcCount != w.SrcCount || g.TrgStart != w.TrgStart || g.TrgCount != w.TrgCount {
			return fmt.Errorf("box %d: %+v, want %+v", i, g, w)
		}
		for _, l := range []struct {
			name      string
			got, want []int32
		}{{"U", g.U, w.U}, {"V", g.V, w.V}, {"W", g.W, w.W}, {"X", g.X, w.X}} {
			if !reflect.DeepEqual(l.got, l.want) {
				return fmt.Errorf("box %d: %s list %v, want %v", i, l.name, l.got, l.want)
			}
		}
	}
	return nil
}
