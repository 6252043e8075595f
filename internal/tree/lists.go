package tree

import (
	"context"

	"repro/internal/morton"
)

// anchor is a box's closed cell in MaxLevel cell units: the low corner
// (x, y, z) and the edge w.
type anchor struct{ x, y, z, w uint32 }

func anchorOf(k morton.Key) anchor {
	x, y, z := k.Decode()
	s := uint(morton.MaxLevel - k.Level)
	return anchor{x << s, y << s, z << s, 1 << s}
}

// touches reports whether the closed cells a and b intersect (share at
// least a face, edge or corner point), whatever their levels.
func (a anchor) touches(b anchor) bool {
	return segTouch(a.x, a.w, b.x, b.w) && segTouch(a.y, a.w, b.y, b.w) && segTouch(a.z, a.w, b.z, b.w)
}

// segTouch reports whether the closed intervals [a, a+aw] and [b, b+bw]
// intersect (touching counts). Aligning two cells to the finer level
// scales both intervals alike, so comparing them in MaxLevel units is
// the same test.
func segTouch(a, aw, b, bw uint32) bool { return a <= b+bw && b <= a+aw }

// SmallLeaf reports whether a W- or X-list interaction with b should go
// point to point instead of through b's surface: b is a leaf holding
// fewer points (count) than the surfN points of the equivalent or check
// surface that would stand for them. For w in W(B) count is w's sources
// (direct instead of M2T); for a box B with an X list count is B's
// targets (direct instead of S2L). This is the rule of the paper's
// reference code (kifmm3d tests `terminal` and the point count the same
// way); restricting it to leaves is what lets the parallel engine serve
// it from the leaf source exchange it already runs. The lists themselves
// do not change. The distributed engine passes the global count, so
// every rank decides identically.
func (b *Box) SmallLeaf(count, surfN int) bool { return b.Leaf && count < surfN }

// lister is buildLists' scratch for one tree: every box's anchor,
// decoded once, a stamp per box that keeps a U list free of repeats, the
// list under construction, and the chunk the finished lists are copied
// into. The colleague lists it computes first are the tree's to keep.
type lister struct {
	t   *Tree
	anc []anchor
	// stamp[x] == b+1 once box x is in leaf b's U list.
	stamp []int32
	buf   []int32
	chunk []int32
}

// listChunk is how many list entries share one allocation.
const listChunk = 1 << 12

// keep copies list into the current chunk and returns the copy, capped
// at its length so that appending to it cannot reach a neighbour; an
// empty list stays nil.
func (l *lister) keep(list []int32) []int32 {
	if len(list) == 0 {
		return nil
	}
	return l.reserve(len(list), list)
}

// reserve takes n entries of the current chunk, filled from list (which
// may be shorter), and returns them as a slice of length len(list) and
// capacity n.
func (l *lister) reserve(n int, list []int32) []int32 {
	if len(l.chunk)+n > cap(l.chunk) {
		l.chunk = make([]int32, 0, max(listChunk, n))
	}
	i := len(l.chunk)
	l.chunk = l.chunk[:i+n]
	copy(l.chunk[i:], list)
	return l.chunk[i : i+len(list) : i+n]
}

// buildLists fills the colleague lists and the U, V, W and X lists of
// every box, using the paper's definitions verbatim (Section 3.1). A V
// list keeps the order of the colleague walk that finds it; the FFT M2L
// sweep (fmm.applyM2LFFT) walks a parent's colleagues in the same order
// for all eight children at once and relies on it. List construction costs
// as much as box construction on large trees, so ctx is checked on the
// same buildCheckEvery cadence.
func (t *Tree) buildLists(ctx context.Context) error {
	l := &lister{t: t, anc: make([]anchor, len(t.Boxes)), stamp: make([]int32, len(t.Boxes))}
	for bi := range t.Boxes {
		l.anc[bi] = anchorOf(t.Boxes[bi].Key)
	}
	l.computeColleagues()
	for bi := range t.Boxes {
		if bi%buildCheckEvery == buildCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		b := &t.Boxes[bi]
		a := l.anc[bi]
		// V list: children of the parent's neighbors that are not
		// adjacent to B. Exists for every box with a parent.
		if b.Parent != Nil {
			v := l.buf[:0]
			for _, pc := range t.Colleagues(b.Parent) {
				for _, c := range t.Boxes[pc].Children {
					if c != Nil && !a.touches(l.anc[c]) {
						v = append(v, c)
					}
				}
			}
			b.V, l.buf = l.keep(v), v
		}
		if !b.Leaf {
			continue
		}
		// U list: B itself plus all adjacent leaves, coarser or finer.
		u := l.adjacentLeaves(l.buf[:0], int32(bi))
		b.U, l.buf = l.keep(u), u
		// W list: descendants of B's neighbors whose parents are adjacent
		// to B but which are not adjacent to B themselves. Recursion into
		// a colleague stops at the first non-adjacent descendant (its own
		// descendants' parents are then not adjacent to B).
		w := l.buf[:0]
		for _, c := range t.Colleagues(int32(bi)) {
			w = l.collectW(w, a, c)
		}
		b.W, l.buf = l.keep(w), w
	}
	// X list is the dual of W: A ∈ X(B) iff B ∈ W(A). Count first, so
	// each list is reserved at its final length.
	nx := l.stamp
	clear(nx)
	for bi := range t.Boxes {
		for _, w := range t.Boxes[bi].W {
			nx[w]++
		}
	}
	for bi := range t.Boxes {
		if nx[bi] > 0 {
			t.Boxes[bi].X = l.reserve(int(nx[bi]), nil)
		}
	}
	for bi := range t.Boxes {
		for _, w := range t.Boxes[bi].W {
			t.Boxes[w].X = append(t.Boxes[w].X, int32(bi))
		}
	}
	return nil
}

// computeColleagues finds, for every box, the existing same-level
// adjacent boxes (the "neighbors" of the paper) and keeps them on the
// tree. A child's colleagues are found among its siblings and the
// children of its parent's colleagues; boxes are visited in index order,
// so a parent's list is complete before its children's.
func (l *lister) computeColleagues() {
	boxes := l.t.Boxes
	var col []int32
	start := make([]int32, len(boxes)+1)
	for bi := range boxes {
		b := &boxes[bi]
		start[bi] = int32(len(col))
		if b.Parent == Nil {
			continue
		}
		a := l.anc[bi]
		consider := func(ci int32) {
			if ci != Nil && ci != int32(bi) && a.touches(l.anc[ci]) {
				col = append(col, ci)
			}
		}
		for _, s := range boxes[b.Parent].Children {
			consider(s)
		}
		for _, pc := range col[start[b.Parent]:start[b.Parent+1]] {
			for _, c := range boxes[pc].Children {
				consider(c)
			}
		}
	}
	start[len(boxes)] = int32(len(col))
	l.t.col, l.t.colStart = col, start
}

// adjacentLeaves appends to u the U list of leaf bi: itself, adjacent
// leaves at the same or finer levels (via colleagues), and adjacent
// coarser leaves (leaf ancestors' colleagues).
func (l *lister) adjacentLeaves(u []int32, bi int32) []int32 {
	a := l.anc[bi]
	l.stamp[bi] = bi + 1
	u = append(u, bi)
	// Same level and finer: descend into adjacent colleagues.
	for _, c := range l.t.Colleagues(bi) {
		u = l.descend(u, bi, a, c)
	}
	// Coarser: walk ancestors; a coarser adjacent leaf must be a
	// colleague of one of B's ancestors (and adjacent to B itself).
	for p := l.t.Boxes[bi].Parent; p != Nil; p = l.t.Boxes[p].Parent {
		for _, c := range l.t.Colleagues(p) {
			if l.t.Boxes[c].Leaf && a.touches(l.anc[c]) {
				u = l.add(u, bi, c)
			}
		}
	}
	return u
}

// descend appends to u, leaf bi's U list, the leaves under box ci that
// touch bi (anchor a).
func (l *lister) descend(u []int32, bi int32, a anchor, ci int32) []int32 {
	if !a.touches(l.anc[ci]) {
		return u
	}
	c := &l.t.Boxes[ci]
	if c.Leaf {
		return l.add(u, bi, ci)
	}
	for _, ch := range c.Children {
		if ch != Nil {
			u = l.descend(u, bi, a, ch)
		}
	}
	return u
}

// add appends x to u, leaf bi's U list, unless it is there already.
func (l *lister) add(u []int32, bi, x int32) []int32 {
	if l.stamp[x] == bi+1 {
		return u
	}
	l.stamp[x] = bi + 1
	return append(u, x)
}

// collectW descends from colleague c of a leaf (anchor a), appending
// the leaf's W-list members to w.
func (l *lister) collectW(w []int32, a anchor, c int32) []int32 {
	cb := &l.t.Boxes[c]
	if cb.Leaf {
		return w // adjacent leaf: handled by the U list
	}
	for _, ch := range cb.Children {
		if ch == Nil {
			continue
		}
		if a.touches(l.anc[ch]) {
			w = l.collectW(w, a, ch)
		} else {
			w = append(w, ch)
		}
	}
	return w
}
