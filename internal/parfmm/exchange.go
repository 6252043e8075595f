package parfmm

import (
	"context"

	"repro/internal/fmm"
)

// Message tag phases (tag = boxIndex*4 + phase).
const (
	tagSrcGather = iota
	tagSrcScatter
	tagDenGather
	tagDenScatter
)

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
	rk.commSpan("source_gather", rk.postSourceGather)
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
	rk.commSpan("source_exchange", rk.exchangeSources)
	rk.commSpan("density_gather", func() { rk.postDensityGather(phiU) })
	rk.commSpan("density_exchange", func() { rk.exchangeDensities(phiU) })
	return rk.ghostPhi
}

// Sources implements fmm.Ghost with the global copy of leaf bi the
// source exchange stored (a rank carries one right-hand side).
func (rk *rank) Sources(bi int32, _ int) (pos, den []float64) {
	return rk.ghostPos[bi], rk.ghostDen[bi]
}

// Counts implements fmm.Ghost with the global point count of box bi
// (sources and targets are the same set in the parallel driver).
func (rk *rank) Counts(bi int32) (src, trg int) {
	n := int(rk.gCnt[bi])
	return n, n
}

// postSourceGather sends this rank's local source positions and
// densities of every contributed leaf to the leaf's owner (Algorithm 1,
// step 1; eager sends, no blocking).
func (rk *rank) postSourceGather() {
	sd := rk.opt.Kernel.SourceDim()
	for bi := range rk.tree.Boxes {
		b := &rk.tree.Boxes[bi]
		if !b.Leaf || b.SrcCount == 0 || rk.owner[bi] == int32(rk.c.Rank()) {
			continue
		}
		payload := make([]float64, 0, 3*b.SrcCount+sd*b.SrcCount)
		payload = append(payload, rk.tree.SrcSlice(int32(bi))...)
		payload = append(payload, rk.pden[b.SrcStart*sd:(b.SrcStart+b.SrcCount)*sd]...)
		rk.c.SendFloat64s(int(rk.owner[bi]), bi*4+tagSrcGather, payload)
	}
}

// exchangeSources completes Algorithm 1 for leaf source data: owners
// receive and combine contributor parts, then scatter the global data to
// every user; users store the ghost copy.
func (rk *rank) exchangeSources() {
	c := rk.c
	sd := rk.opt.Kernel.SourceDim()
	me := c.Rank()
	for bi := range rk.tree.Boxes {
		b := &rk.tree.Boxes[bi]
		if !b.Leaf {
			continue
		}
		if rk.owner[bi] == int32(me) {
			// Gather: combine local part with contributor messages.
			pos := append([]float64(nil), rk.tree.SrcSlice(int32(bi))...)
			den := append([]float64(nil), rk.pden[b.SrcStart*sd:(b.SrcStart+b.SrcCount)*sd]...)
			rk.forEachRank(rk.contrib, int32(bi), func(r int) {
				if r == me {
					return
				}
				payload := c.RecvFloat64s(r, bi*4+tagSrcGather)
				np := len(payload) / (3 + sd)
				pos = append(pos, payload[:3*np]...)
				den = append(den, payload[3*np:]...)
			})
			global := make([]float64, 0, len(pos)+len(den))
			global = append(global, pos...)
			global = append(global, den...)
			// Scatter to users.
			rk.forEachRank(rk.srcUse, int32(bi), func(r int) {
				if r == me {
					return
				}
				c.SendFloat64s(r, bi*4+tagSrcScatter, global)
			})
			if rk.isUser(rk.srcUse, int32(bi)) {
				rk.ghostPos[bi] = pos
				rk.ghostDen[bi] = den
			}
		} else if rk.isUser(rk.srcUse, int32(bi)) {
			payload := c.RecvFloat64s(int(rk.owner[bi]), bi*4+tagSrcScatter)
			np := len(payload) / (3 + sd)
			rk.ghostPos[bi] = payload[:3*np]
			rk.ghostDen[bi] = payload[3*np:]
		}
	}
}

// postDensityGather sends partial upward equivalent densities of
// contributed boxes to their owners.
func (rk *rank) postDensityGather(phiU [][]float64) {
	me := rk.c.Rank()
	for bi := range rk.tree.Boxes {
		if phiU[bi] == nil || rk.owner[bi] == int32(me) {
			continue
		}
		rk.c.SendFloat64s(int(rk.owner[bi]), bi*4+tagDenGather, phiU[bi])
	}
}

// exchangeDensities sums partial upward densities at owners and
// scatters the global densities to users.
func (rk *rank) exchangeDensities(phiU [][]float64) {
	c := rk.c
	me := c.Rank()
	ne := rk.eng.Ops.EquivCount()
	for bi := range rk.tree.Boxes {
		if rk.owner[bi] == int32(me) {
			sum := make([]float64, ne)
			if phiU[bi] != nil {
				copy(sum, phiU[bi])
			}
			rk.forEachRank(rk.contrib, int32(bi), func(r int) {
				if r == me {
					return
				}
				part := c.RecvFloat64s(r, bi*4+tagDenGather)
				for i := range sum {
					sum[i] += part[i]
				}
			})
			rk.forEachRank(rk.denUse, int32(bi), func(r int) {
				if r == me {
					return
				}
				c.SendFloat64s(r, bi*4+tagDenScatter, sum)
			})
			if rk.isUser(rk.denUse, int32(bi)) {
				rk.ghostPhi[bi] = sum
			}
		} else if rk.isUser(rk.denUse, int32(bi)) {
			rk.ghostPhi[bi] = c.RecvFloat64s(int(rk.owner[bi]), bi*4+tagDenScatter)
		}
	}
}
