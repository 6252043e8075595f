// Package barneshut implements a Barnes-Hut treecode baseline. The
// paper's related-work section cites the FMM-vs-Barnes-Hut comparison of
// Blelloch & Narlikar [3] with the conclusion that "for higher
// accuracies, FMM is the fastest method"; this package provides the
// comparator so the repository can reproduce that observation (see
// BenchmarkTreecodeComparison at the repo root).
//
// The treecode generalizes kernel-independently the same way the FMM
// does: instead of a truncated multipole series, each box carries an
// upward equivalent density (built with the same S2M/M2M operators as
// the FMM), and a target accepts a box when the standard opening
// criterion width/distance < theta holds. There is no downward pass and
// no local expansions — the O(N log N) vs O(N) distinction against the
// FMM is structural, exactly as in the classical comparison.
package barneshut

import (
	"context"
	"fmt"

	"repro/internal/kernels"
	"repro/internal/translate"
	"repro/internal/tree"
)

// Options configure a treecode evaluator.
type Options struct {
	// Kernel is required.
	Kernel kernels.Kernel
	// Theta is the opening-angle parameter (default 0.5; smaller is more
	// accurate and slower).
	Theta float64
	// Degree is the equivalent-surface degree p (default 6); it controls
	// the per-acceptance accuracy just as in the FMM.
	Degree int
	// MaxPoints is the leaf threshold s (default 60).
	MaxPoints int
	// PinvTol is the pseudo-inverse truncation (default 1e-10).
	PinvTol float64
}

// Evaluator is a prepared Barnes-Hut treecode over fixed points.
type Evaluator struct {
	tree *tree.Tree
	ops  *translate.Set
	opt  Options
}

// New builds the octree over the points (sources and targets are the
// same set, the usual treecode situation); ctx can abandon the build.
func New(ctx context.Context, pts []float64, opt Options) (*Evaluator, error) {
	if opt.Kernel == nil {
		return nil, fmt.Errorf("barneshut: Options.Kernel is required")
	}
	if opt.Theta == 0 {
		opt.Theta = 0.5
	}
	if opt.Theta < 0 {
		return nil, fmt.Errorf("barneshut: Theta must be positive")
	}
	if opt.Degree == 0 {
		opt.Degree = 6
	}
	if opt.MaxPoints == 0 {
		opt.MaxPoints = 60
	}
	if opt.PinvTol == 0 {
		opt.PinvTol = 1e-10
	}
	tr, err := tree.BuildCtx(ctx, pts, pts, tree.Config{MaxPoints: opt.MaxPoints})
	if err != nil {
		return nil, err
	}
	ops, err := translate.NewSet(opt.Kernel, opt.Degree, tr.HalfWidth, opt.PinvTol)
	if err != nil {
		return nil, err
	}
	return &Evaluator{tree: tr, ops: ops, opt: opt}, nil
}

// Evaluate computes the potentials for den (input order in, input order
// out), walking the tree per target with the theta criterion.
func (e *Evaluator) Evaluate(den []float64) ([]float64, error) {
	k := e.opt.Kernel
	sd, td := k.SourceDim(), k.TargetDim()
	t := e.tree
	n := len(t.SrcPoints) / 3
	if len(den) != n*sd {
		return nil, fmt.Errorf("barneshut: density length %d, want %d", len(den), n*sd)
	}
	// Permute densities into Morton order.
	pden := make([]float64, len(den))
	for i, orig := range t.SrcPerm {
		copy(pden[i*sd:(i+1)*sd], den[int(orig)*sd:(int(orig)+1)*sd])
	}
	phiU := e.upward(pden)
	ppot := make([]float64, n*td)
	// Per-leaf walks: all targets in a leaf share the acceptance set, so
	// walk once per leaf (the standard blocked treecode optimization).
	surf := make([]float64, 3*e.ops.Surf.N)
	for _, li := range t.Leaves() {
		lb := &t.Boxes[li]
		if lb.TrgCount == 0 {
			continue
		}
		trg := t.TrgSlice(li)
		pot := ppot[lb.TrgStart*td : (lb.TrgStart+lb.TrgCount)*td]
		e.walk(0, li, trg, pot, pden, phiU, surf)
	}
	pot := make([]float64, len(ppot))
	for i, orig := range t.TrgPerm {
		copy(pot[int(orig)*td:(int(orig)+1)*td], ppot[i*td:(i+1)*td])
	}
	return pot, nil
}

// upward builds upward equivalent densities exactly as the FMM does.
func (e *Evaluator) upward(pden []float64) [][]float64 {
	t := e.tree
	k := e.opt.Kernel
	sd := k.SourceDim()
	ne, nc := e.ops.EquivCount(), e.ops.CheckCount()
	phiU := make([][]float64, len(t.Boxes))
	check := make([]float64, nc)
	uc := make([]float64, 3*e.ops.Surf.N)
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
				e.ops.UpwardCheckPoints(t.BoxCenter(int32(bi)), r, uc)
				kernels.P2P(k, uc, t.SrcSlice(int32(bi)), pden[b.SrcStart*sd:(b.SrcStart+b.SrcCount)*sd], check)
			} else {
				for o, ci := range b.Children {
					if ci != tree.Nil && phiU[ci] != nil {
						e.ops.M2M(l, o).Apply(check, phiU[ci])
					}
				}
			}
			phi := make([]float64, ne)
			e.ops.UpwardPinv(l).Apply(phi, check)
			phiU[bi] = phi
		}
	}
	return phiU
}

// walk descends from box bi evaluating accepted boxes' equivalent
// densities (or leaf sources directly) at the targets of leaf li.
func (e *Evaluator) walk(bi, li int32, trg, pot, pden []float64, phiU [][]float64, surf []float64) {
	t := e.tree
	b := &t.Boxes[bi]
	if b.SrcCount == 0 {
		return
	}
	k := e.opt.Kernel
	if bi != li && e.accepts(bi, li) {
		// Far box: evaluate its upward equivalent density directly at
		// the targets (the treecode's "monopole" replaced by the
		// kernel-independent equivalent density).
		e.ops.UpwardEquivPoints(t.BoxCenter(bi), t.BoxHalfWidth(b.Level()), surf)
		kernels.P2P(k, trg, surf, phiU[bi], pot)
		return
	}
	if b.Leaf {
		// Near leaf (or the target leaf itself): direct interactions.
		sd := k.SourceDim()
		kernels.P2P(k, trg, t.SrcSlice(bi), pden[b.SrcStart*sd:(b.SrcStart+b.SrcCount)*sd], pot)
		return
	}
	for _, c := range b.Children {
		if c != tree.Nil {
			e.walk(c, li, trg, pot, pden, phiU, surf)
		}
	}
}

// accepts applies the opening criterion between source box bi and the
// target leaf li: the source's equivalent surface must stay well
// separated from the leaf, i.e. width/dist < theta measured between box
// centers minus both half-extents.
func (e *Evaluator) accepts(bi, li int32) bool {
	t := e.tree
	cb := t.BoxCenter(bi)
	cl := t.BoxCenter(li)
	rb := t.BoxHalfWidth(t.Boxes[bi].Level())
	rl := t.BoxHalfWidth(t.Boxes[li].Level())
	d2 := 0.0
	for i := 0; i < 3; i++ {
		d := cb[i] - cl[i]
		d2 += d * d
	}
	// Validity first: targets must lie outside the source's upward check
	// region (3x the box), or the equivalent density does not represent
	// the field there. Then the accuracy criterion width/dist < theta.
	sep2 := (3*rb + rl) * (3*rb + rl) * 3 // conservative: corner distance
	if d2 < sep2 {
		return false
	}
	w := 2 * rb
	return w*w < e.opt.Theta*e.opt.Theta*d2
}
