package parfmm

import (
	"context"
	"slices"

	"repro/internal/fmm"
)

// ghostData is one kind of box data that Algorithm 1 (paper Section 3.2)
// moves: contributors send their part of a box to its owner under tag
// box*4+phase, the owner combines its own part and theirs in rank order,
// and scatters the global value to its users under box*4+phase+1.
type ghostData struct {
	phase  int
	leaves bool        // only leaves take part; otherwise every box does
	use    []int64     // user masks: the ranks that read a box's global value
	ghost  [][]float64 // box -> global value, where this rank is a user
	// part is this rank's part of box bi in two segments, which a
	// contributor sends as one message (an empty a: no part). combine
	// makes the global value from the owner's own part, read in place,
	// and the contributors' messages, which parts hands to each.
	part    func(bi int) (a, b []float64)
	combine func(bi int, a, b []float64, parts func(each func([]float64))) []float64
}

// sourceData is the source exchange: a leaf's global value is the
// positions of its parts in rank order, then their densities.
func (rk *rank) sourceData() *ghostData {
	sd := rk.opt.Kernel.SourceDim()
	return &ghostData{
		phase: 0, leaves: true, use: rk.srcUse, ghost: make([][]float64, len(rk.tree.Boxes)),
		part: func(bi int) (pos, den []float64) {
			b := &rk.tree.Boxes[bi]
			return rk.tree.SrcSlice(int32(bi)), rk.pden[b.SrcStart*sd : (b.SrcStart+b.SrcCount)*sd]
		},
		combine: func(bi int, pos, den []float64, parts func(func([]float64))) []float64 {
			n := int(rk.gCnt[bi])
			g := make([]float64, (3+sd)*n)
			at := copy(g, pos) / 3
			copy(g[3*n:], den)
			parts(func(p []float64) {
				np := len(p) / (3 + sd)
				copy(g[3*at:], p[:3*np])
				copy(g[3*n+sd*at:], p[3*np:])
				at += np
			})
			return g
		},
	}
}

// densityData is the upward-density exchange: a box's global value is
// the sum of its partial upward equivalent densities, rk.phiU.
func (rk *rank) densityData() *ghostData {
	ne := rk.eng.Ops.EquivCount()
	return &ghostData{
		phase: 2, use: rk.denUse, ghost: make([][]float64, len(rk.tree.Boxes)),
		part: func(bi int) (a, b []float64) { return rk.phiU[bi], nil },
		combine: func(_ int, own, _ []float64, parts func(func([]float64))) []float64 {
			sum := make([]float64, ne)
			copy(sum, own)
			parts(func(p []float64) {
				for i := range sum {
					sum[i] += p[i]
				}
			})
			return sum
		},
	}
}

// evaluate runs one interaction computation under a span of the given
// name: the engine's passes over the rank's tree, with the two ghost
// exchanges of paper Section 3.2 around them. The source sends are posted
// before the upward pass, so their transfer overlaps it; everything else
// is exchanged at the engine's barrier between the upward and the
// downward pass (Exchange). The engine opens its pass spans under the
// same span, so they are on the rank's clock like the exchanges'.
func (rk *rank) evaluate(ctx context.Context, name string) (fmm.Stats, error) {
	rk.iter = rk.root().StartChild(name)
	defer rk.iter.End()
	rk.commSpan("source_gather", func() { rk.post(rk.src) })
	pots, st, err := rk.eng.Evaluate(ctx, [][]float64{rk.in.Den}, rk.iter, rk)
	if err != nil {
		return fmm.Stats{}, err
	}
	rk.pot = pots[0]
	return st, nil
}

// Exchange implements fmm.Ghost: with every partial upward density of
// this rank final, complete Algorithm 1 for the leaf sources, then run
// it for the densities, and hand the engine the global ones.
func (rk *rank) Exchange(phiU [][]float64) [][]float64 {
	rk.commSpan("source_exchange", func() { rk.exchange(rk.src) })
	rk.phiU = phiU
	rk.commSpan("density_gather", func() { rk.post(rk.den) })
	rk.commSpan("density_exchange", func() { rk.exchange(rk.den) })
	return rk.den.ghost
}

// Sources implements fmm.Ghost with the global copy of leaf bi the
// source exchange stored (a rank carries one right-hand side).
func (rk *rank) Sources(bi int32, _ int) (pos, den []float64) {
	g := rk.src.ghost[bi]
	return g[:3*rk.gCnt[bi]], g[3*rk.gCnt[bi]:]
}

// Counts implements fmm.Ghost with the global point count of box bi
// (sources and targets are the same set in the parallel driver).
func (rk *rank) Counts(bi int32) (src, trg int) {
	n := int(rk.gCnt[bi])
	return n, n
}

// post sends this rank's part of every box it contributes to and does
// not own to the box's owner (Algorithm 1, step 1; eager sends, no
// blocking).
func (rk *rank) post(d *ghostData) {
	me := int32(rk.c.Rank())
	for bi := range rk.tree.Boxes {
		if d.leaves && !rk.tree.Boxes[bi].Leaf || rk.owner[bi] == me {
			continue
		}
		if a, b := d.part(bi); len(a) > 0 {
			if len(b) > 0 {
				a = slices.Concat(a, b)
			}
			rk.c.SendFloat64s(int(rk.owner[bi]), bi*4+d.phase, a)
		}
	}
}

// exchange completes Algorithm 1 for d: each owner receives and combines
// its contributors' parts and scatters the global value to every user;
// each user keeps it.
func (rk *rank) exchange(d *ghostData) {
	c := rk.c
	me := c.Rank()
	for bi := range rk.tree.Boxes {
		if d.leaves && !rk.tree.Boxes[bi].Leaf {
			continue
		}
		user := rk.isUser(d.use, int32(bi))
		if rk.owner[bi] != int32(me) {
			if user {
				d.ghost[bi] = c.RecvFloat64s(int(rk.owner[bi]), bi*4+d.phase+1)
			}
			continue
		}
		a, b := d.part(bi)
		g := d.combine(bi, a, b, func(each func([]float64)) {
			rk.forEachRank(rk.contrib, int32(bi), func(r int) {
				if r != me {
					each(c.RecvFloat64s(r, bi*4+d.phase))
				}
			})
		})
		rk.forEachRank(d.use, int32(bi), func(r int) {
			if r != me {
				c.SendFloat64s(r, bi*4+d.phase+1, g)
			}
		})
		if user {
			d.ghost[bi] = g
		}
	}
}
