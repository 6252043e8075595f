package tree

import (
	"context"

	"repro/internal/morton"
)

// Adjacent reports whether the closed cells of boxes a and b intersect
// (share at least a face, edge or corner point). Boxes at different
// levels are compared by aligning both to the finer resolution.
func Adjacent(a, b morton.Key) bool {
	ax, ay, az := a.Decode()
	bx, by, bz := b.Decode()
	la, lb := uint(a.Level), uint(b.Level)
	f := la
	if lb > f {
		f = lb
	}
	sa, sb := f-la, f-lb
	return segTouch(ax, sa, bx, sb) && segTouch(ay, sa, by, sb) && segTouch(az, sa, bz, sb)
}

// segTouch reports whether intervals [a<<sa, (a+1)<<sa] and
// [b<<sb, (b+1)<<sb] intersect (closed intervals, so touching counts).
func segTouch(a uint32, sa uint, b uint32, sb uint) bool {
	a0 := uint64(a) << sa
	a1 := uint64(a+1) << sa
	b0 := uint64(b) << sb
	b1 := uint64(b+1) << sb
	return a0 <= b1 && b0 <= a1
}

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

// buildLists fills the U, V, W and X lists of every box, using the
// paper's definitions verbatim (Section 3.1). List construction costs
// as much as box construction on large trees, so ctx is checked on the
// same buildCheckEvery cadence.
func (t *Tree) buildLists(ctx context.Context) error {
	colleagues := t.computeColleagues()
	for bi := range t.Boxes {
		if bi%buildCheckEvery == buildCheckEvery-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		b := &t.Boxes[bi]
		// V list: children of the parent's neighbors that are not
		// adjacent to B. Exists for every box with a parent.
		if b.Parent != Nil {
			for _, pc := range colleagues[b.Parent] {
				for _, a := range t.Boxes[pc].Children {
					if a == Nil {
						continue
					}
					if !Adjacent(b.Key, t.Boxes[a].Key) {
						b.V = append(b.V, a)
					}
				}
			}
		}
		if !b.Leaf {
			continue
		}
		// U list: B itself plus all adjacent leaves, coarser or finer.
		b.U = t.adjacentLeaves(int32(bi), colleagues)
		// W list: descendants of B's neighbors whose parents are adjacent
		// to B but which are not adjacent to B themselves. Recursion into
		// a colleague stops at the first non-adjacent descendant (its own
		// descendants' parents are then not adjacent to B).
		for _, c := range colleagues[bi] {
			t.collectW(b, c)
		}
	}
	// X list is the dual of W: A ∈ X(B) iff B ∈ W(A).
	for bi := range t.Boxes {
		for _, w := range t.Boxes[bi].W {
			t.Boxes[w].X = append(t.Boxes[w].X, int32(bi))
		}
	}
	return nil
}

// computeColleagues returns, for every box, the existing same-level
// adjacent boxes (the "neighbors" of the paper). A child's colleagues are
// found among its siblings and the children of its parent's colleagues.
func (t *Tree) computeColleagues() [][]int32 {
	out := make([][]int32, len(t.Boxes))
	for bi := range t.Boxes {
		b := &t.Boxes[bi]
		if b.Parent == Nil {
			continue
		}
		consider := func(ci int32) {
			if ci == Nil || ci == int32(bi) {
				return
			}
			if Adjacent(b.Key, t.Boxes[ci].Key) {
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

// adjacentLeaves returns the U list of leaf bi: itself, adjacent leaves
// at the same or finer levels (via colleagues), and adjacent coarser
// leaves (leaf ancestors' colleagues).
func (t *Tree) adjacentLeaves(bi int32, colleagues [][]int32) []int32 {
	b := &t.Boxes[bi]
	seen := map[int32]bool{bi: true}
	u := []int32{bi}
	add := func(x int32) {
		if !seen[x] {
			seen[x] = true
			u = append(u, x)
		}
	}
	// Same level and finer: descend into adjacent colleagues.
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
	// Coarser: walk ancestors; a coarser adjacent leaf must be a
	// colleague of one of B's ancestors (and adjacent to B itself).
	for p := b.Parent; p != Nil; p = t.Boxes[p].Parent {
		for _, c := range colleagues[p] {
			if t.Boxes[c].Leaf && Adjacent(b.Key, t.Boxes[c].Key) {
				add(c)
			}
		}
	}
	return u
}

// collectW descends from colleague c of leaf b collecting W-list members.
func (t *Tree) collectW(b *Box, c int32) {
	cb := &t.Boxes[c]
	if cb.Leaf {
		return // adjacent leaf: handled by the U list
	}
	for _, ch := range cb.Children {
		if ch == Nil {
			continue
		}
		if Adjacent(b.Key, t.Boxes[ch].Key) {
			t.collectW(b, ch)
		} else {
			b.W = append(b.W, ch)
		}
	}
}
