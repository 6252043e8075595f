package parfmm

import (
	"strconv"

	"repro/internal/fmm"
	"repro/internal/kernels"
	"repro/internal/tree"
)

// Message tag phases (tag = boxIndex*4 + phase).
const (
	tagSrcGather = iota
	tagSrcScatter
	tagDenGather
	tagDenScatter
)

// evaluate runs one interaction computation: the three logically
// separated stages of paper Section 3.2, with the ghost communication
// overlapping the upward pass and the equivalent-density communication
// overlapping the U- and X-list computations (the sends are posted
// before the compute phases; the virtual clock then absorbs transfer
// time into the compute window).
func (rk *rank) evaluate() {
	rk.stats = fmm.Stats{}
	rk.ghostPos = make(map[int32][]float64)
	rk.ghostDen = make(map[int32][]float64)
	rk.ghostPhi = make(map[int32][]float64)

	// Overlap: post the ghost source sends before the upward compute.
	mk := rk.markIO()
	sp := rk.beginSpan("source_gather")
	rk.postSourceGather()
	rk.endSpanIO(sp, mk)
	sp = rk.beginSpan("upward")
	rk.upwardPass()
	rk.endSpan(sp)
	mk = rk.markIO()
	sp = rk.beginSpan("source_exchange")
	rk.exchangeSources()
	rk.endSpanIO(sp, mk)

	// Overlap: post the density sends, run the dense (U) and X-list
	// computations, then complete the density exchange and finish the
	// downward pass.
	mk = rk.markIO()
	sp = rk.beginSpan("density_gather")
	rk.postDensityGather()
	rk.endSpanIO(sp, mk)
	sp = rk.beginSpan("down_ux")
	checks, potSorted := rk.downUX()
	sp.SetAttr("x_direct", strconv.FormatInt(rk.stats.XDirect, 10))
	rk.endSpan(sp)
	mk = rk.markIO()
	sp = rk.beginSpan("density_exchange")
	rk.exchangeDensities()
	rk.endSpanIO(sp, mk)
	sp = rk.beginSpan("down_vw_local")
	rk.downVWAndLocal(checks, potSorted)
	sp.SetAttr("w_direct", strconv.FormatInt(rk.stats.WDirect, 10))
	rk.endSpan(sp)

	// Un-permute potentials to the rank's original local order.
	td := rk.opt.Kernel.TargetDim()
	rk.pot = make([]float64, len(potSorted))
	for i, orig := range rk.tree.SrcPerm {
		copy(rk.pot[int(orig)*td:(int(orig)+1)*td], potSorted[i*td:(i+1)*td])
	}
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
				rk.ghostPos[int32(bi)] = pos
				rk.ghostDen[int32(bi)] = den
			}
		} else if rk.isUser(rk.srcUse, int32(bi)) {
			payload := c.RecvFloat64s(int(rk.owner[bi]), bi*4+tagSrcScatter)
			np := len(payload) / (3 + sd)
			rk.ghostPos[int32(bi)] = payload[:3*np]
			rk.ghostDen[int32(bi)] = payload[3*np:]
		}
	}
}

// postDensityGather sends partial upward equivalent densities of
// contributed boxes to their owners.
func (rk *rank) postDensityGather() {
	me := rk.c.Rank()
	for bi := range rk.tree.Boxes {
		if rk.phiU[bi] == nil || rk.owner[bi] == int32(me) {
			continue
		}
		rk.c.SendFloat64s(int(rk.owner[bi]), bi*4+tagDenGather, rk.phiU[bi])
	}
}

// exchangeDensities sums partial upward densities at owners and
// scatters the global densities to users.
func (rk *rank) exchangeDensities() {
	c := rk.c
	me := c.Rank()
	ne := rk.ops.EquivCount()
	for bi := range rk.tree.Boxes {
		if rk.owner[bi] == int32(me) {
			sum := make([]float64, ne)
			if rk.phiU[bi] != nil {
				copy(sum, rk.phiU[bi])
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
				rk.ghostPhi[int32(bi)] = sum
			}
		} else if rk.isUser(rk.denUse, int32(bi)) {
			rk.ghostPhi[int32(bi)] = c.RecvFloat64s(int(rk.owner[bi]), bi*4+tagDenScatter)
		}
	}
}

// upwardPass builds partial upward equivalent densities for every
// contributed box from local sources only, ignoring other ranks; the
// per-rank partials are linear in the sources, so the owner-side sums
// equal the sequential densities.
func (rk *rank) upwardPass() {
	t0 := rk.c.Elapsed()
	t := rk.tree
	k := rk.opt.Kernel
	sd := k.SourceDim()
	ne, nc := rk.ops.EquivCount(), rk.ops.CheckCount()
	rk.phiU = make([][]float64, len(t.Boxes))
	check := make([]float64, nc)
	ucPts := make([]float64, 3*rk.ops.Surf.N)
	for l := t.Depth() - 1; l >= 0; l-- {
		r := t.BoxHalfWidth(l)
		for bi := t.LevelStart[l]; bi < t.LevelStart[l+1]; bi++ {
			b := &t.Boxes[bi]
			if b.SrcCount == 0 {
				continue
			}
			for i := range check {
				check[i] = 0
			}
			if b.Leaf {
				rk.ops.UpwardCheckPoints(t.BoxCenter(int32(bi)), r, ucPts)
				kernels.P2P(k, ucPts, t.SrcSlice(int32(bi)), rk.pden[b.SrcStart*sd:(b.SrcStart+b.SrcCount)*sd], check)
				rk.stats.FlopsUp += kernels.P2PFlops(k, rk.ops.Surf.N, b.SrcCount)
			} else {
				for o, ci := range b.Children {
					if ci == tree.Nil || rk.phiU[ci] == nil {
						continue
					}
					rk.ops.M2M(l, o).Apply(check, rk.phiU[ci])
					rk.stats.FlopsUp += int64(2 * nc * ne)
				}
			}
			phi := make([]float64, ne)
			rk.ops.UpwardPinv(l).Apply(phi, check)
			rk.stats.FlopsUp += int64(2 * ne * nc)
			rk.phiU[bi] = phi
		}
	}
	rk.stats.Up = rk.c.Elapsed() - t0
}

// downUX performs the parts of the downward stage that need only ghost
// source data: the dense U-list interactions (into the local target
// potentials) and the X-list contributions (S2L into the downward check
// potentials, or straight into the local targets of a small leaf). It
// returns the per-box check buffers and the potential accumulator in
// Morton order.
func (rk *rank) downUX() ([][]float64, []float64) {
	t := rk.tree
	k := rk.opt.Kernel
	td := k.TargetDim()
	nc := rk.ops.CheckCount()
	checks := make([][]float64, len(t.Boxes))
	potSorted := make([]float64, (len(t.SrcPoints)/3)*td)
	dcPts := make([]float64, 3*rk.ops.Surf.N)

	// U list (dense interactions) for contributed leaves.
	tU := rk.c.Elapsed()
	for bi := range t.Boxes {
		b := &t.Boxes[bi]
		if !b.Leaf || b.SrcCount == 0 {
			continue
		}
		trg := t.SrcSlice(int32(bi))
		pot := potSorted[b.SrcStart*td : (b.SrcStart+b.SrcCount)*td]
		for _, u := range b.U {
			pos, den := rk.ghostPos[u], rk.ghostDen[u]
			if len(pos) == 0 {
				continue
			}
			kernels.P2P(k, trg, pos, den, pot)
			rk.stats.FlopsDownU += kernels.P2PFlops(k, b.SrcCount, len(pos)/3)
		}
	}
	rk.stats.DownU = rk.c.Elapsed() - tU

	// X list for contributed boxes.
	tX := rk.c.Elapsed()
	for bi := range t.Boxes {
		b := &t.Boxes[bi]
		if b.SrcCount == 0 || len(b.X) == 0 {
			continue
		}
		var trg, dst []float64
		if rk.smallLeaf(int32(bi)) {
			trg = t.SrcSlice(int32(bi))
			dst = potSorted[b.SrcStart*td : (b.SrcStart+b.SrcCount)*td]
			rk.stats.XDirect += int64(len(b.X))
		} else {
			trg = rk.ops.DownwardCheckPoints(t.BoxCenter(int32(bi)), t.BoxHalfWidth(b.Level()), dcPts)
			dst = make([]float64, nc)
			checks[bi] = dst
		}
		for _, x := range b.X {
			pos, den := rk.ghostPos[x], rk.ghostDen[x]
			if len(pos) == 0 {
				continue
			}
			kernels.P2P(k, trg, pos, den, dst)
			rk.stats.FlopsDownX += kernels.P2PFlops(k, len(trg)/3, len(pos)/3)
		}
	}
	rk.stats.DownX = rk.c.Elapsed() - tX
	return checks, potSorted
}

// downVWAndLocal completes the downward stage once global upward
// densities are available: M2L over the V lists, the L2L/inversion chain
// and leaf evaluation (L2T), plus the W-list contributions (M2T, or the
// ghost sources of a small-leaf member).
func (rk *rank) downVWAndLocal(checks [][]float64, potSorted []float64) {
	t := rk.tree
	k := rk.opt.Kernel
	td := k.TargetDim()
	ne, nc := rk.ops.EquivCount(), rk.ops.CheckCount()
	rk.phiD = make([][]float64, len(t.Boxes))
	getCheck := func(bi int32) []float64 {
		if checks[bi] == nil {
			checks[bi] = make([]float64, nc)
		}
		return checks[bi]
	}
	surfPts := make([]float64, 3*rk.ops.Surf.N)

	for l := 2; l < t.Depth(); l++ {
		// V list, batched per level through the selected backend.
		tV := rk.c.Elapsed()
		if rk.fft != nil {
			rk.applyM2LFFT(l, checks, getCheck)
		} else {
			for bi := t.LevelStart[l]; bi < t.LevelStart[l+1]; bi++ {
				b := &t.Boxes[bi]
				if b.SrcCount == 0 || len(b.V) == 0 {
					continue
				}
				check := getCheck(int32(bi))
				bx, by, bz := b.Key.Decode()
				for _, a := range b.V {
					phi := rk.ghostPhi[a]
					if phi == nil {
						continue
					}
					ax, ay, az := t.Boxes[a].Key.Decode()
					rk.ops.M2LDirect(l, [3]int{int(bx) - int(ax), int(by) - int(ay), int(bz) - int(az)}).Apply(check, phi)
					rk.stats.FlopsDownV += int64(2 * nc * ne)
				}
			}
		}
		rk.stats.DownV += rk.c.Elapsed() - tV

		// L2L + inversion.
		tE := rk.c.Elapsed()
		for bi := t.LevelStart[l]; bi < t.LevelStart[l+1]; bi++ {
			b := &t.Boxes[bi]
			if b.SrcCount == 0 {
				continue
			}
			if p := b.Parent; p != tree.Nil && rk.phiD[p] != nil {
				rk.ops.L2L(l-1, b.Key.Octant()).Apply(getCheck(int32(bi)), rk.phiD[p])
				rk.stats.FlopsEval += int64(2 * nc * ne)
			}
			if checks[bi] != nil {
				phi := make([]float64, ne)
				rk.ops.DownwardPinv(l).Apply(phi, checks[bi])
				rk.stats.FlopsEval += int64(2 * ne * nc)
				rk.phiD[bi] = phi
			}
		}
		rk.stats.Eval += rk.c.Elapsed() - tE
	}

	// Leaf evaluation: W-list M2T and the local expansion L2T.
	for bi := range t.Boxes {
		b := &t.Boxes[bi]
		if !b.Leaf || b.SrcCount == 0 {
			continue
		}
		trg := t.SrcSlice(int32(bi))
		pot := potSorted[b.SrcStart*td : (b.SrcStart+b.SrcCount)*td]
		tW := rk.c.Elapsed()
		for _, w := range b.W {
			if rk.smallLeaf(w) {
				pos, den := rk.ghostPos[w], rk.ghostDen[w]
				kernels.P2P(k, trg, pos, den, pot)
				rk.stats.FlopsDownW += kernels.P2PFlops(k, b.SrcCount, len(pos)/3)
				rk.stats.WDirect++
				continue
			}
			phi := rk.ghostPhi[w]
			if phi == nil {
				continue
			}
			wb := &t.Boxes[w]
			rk.ops.UpwardEquivPoints(t.BoxCenter(w), t.BoxHalfWidth(wb.Level()), surfPts)
			kernels.P2P(k, trg, surfPts, phi, pot)
			rk.stats.FlopsDownW += kernels.P2PFlops(k, b.SrcCount, rk.ops.Surf.N)
		}
		rk.stats.DownW += rk.c.Elapsed() - tW
		tE := rk.c.Elapsed()
		if rk.phiD[bi] != nil {
			rk.ops.DownwardEquivPoints(t.BoxCenter(int32(bi)), t.BoxHalfWidth(b.Level()), surfPts)
			kernels.P2P(k, trg, surfPts, rk.phiD[bi], pot)
			rk.stats.FlopsEval += kernels.P2PFlops(k, b.SrcCount, rk.ops.Surf.N)
		}
		rk.stats.Eval += rk.c.Elapsed() - tE
	}
}

// applyM2LFFT is the Fourier-space V-list path over ghost densities.
func (rk *rank) applyM2LFFT(l int, checks [][]float64, getCheck func(int32) []float64) {
	t := rk.tree
	k := rk.opt.Kernel
	sd, td := k.SourceDim(), k.TargetDim()
	gl := rk.fft.GridLen()
	lo, hi := t.LevelStart[l], t.LevelStart[l+1]
	// Forward-transform every source box some V list uses. V-list
	// members share the level, so box a's grids sit at grids[a-lo].
	grids := make([][][]complex128, hi-lo)
	for bi := lo; bi < hi; bi++ {
		b := &t.Boxes[bi]
		if b.SrcCount == 0 {
			continue
		}
		for _, a := range b.V {
			phi := rk.ghostPhi[a]
			if phi == nil || grids[int(a)-lo] != nil {
				continue
			}
			g := rk.fft.NewSourceGrids()
			rk.fft.ForwardDensity(phi, g)
			grids[int(a)-lo] = g
			rk.stats.FlopsDownV += int64(5 * gl * sd)
		}
	}
	acc := rk.fft.NewAccumulator()
	for bi := lo; bi < hi; bi++ {
		b := &t.Boxes[bi]
		if b.SrcCount == 0 || len(b.V) == 0 {
			continue
		}
		rk.fft.ResetAccumulator(acc)
		bx, by, bz := b.Key.Decode()
		any := false
		for _, a := range b.V {
			g := grids[int(a)-lo]
			if g == nil {
				continue
			}
			ax, ay, az := t.Boxes[a].Key.Decode()
			rk.fft.Accumulate(acc, g, l, [3]int{int(bx) - int(ax), int(by) - int(ay), int(bz) - int(az)})
			rk.stats.FlopsDownV += int64(8 * gl * sd * td)
			any = true
		}
		if any {
			rk.fft.Extract(acc, l, getCheck(int32(bi)))
			rk.stats.FlopsDownV += int64(5 * gl * td)
		}
	}
}
