package fmm

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// mirrorGhost is a Ghost written the way a distributed rank writes one —
// box-indexed copies filled at the exchange — whose "other ranks" hold
// nothing: every copy comes from the evaluator's own tree.
type mirrorGhost struct {
	e         *Evaluator
	pden      []float64 // densities in Morton order
	pos, den  [][]float64
	exchanged int
}

func (g *mirrorGhost) Exchange(phiU [][]float64) [][]float64 {
	g.exchanged++
	t, sd := g.e.Tree, g.e.opt.Kernel.SourceDim()
	g.pos, g.den = make([][]float64, len(t.Boxes)), make([][]float64, len(t.Boxes))
	for bi := range t.Boxes {
		b := &t.Boxes[bi]
		g.pos[bi] = append([]float64(nil), t.SrcSlice(int32(bi))...)
		g.den[bi] = append([]float64(nil), g.pden[b.SrcStart*sd:(b.SrcStart+b.SrcCount)*sd]...)
	}
	out := make([][]float64, len(phiU))
	for bi, phi := range phiU {
		if phi != nil {
			out[bi] = append([]float64(nil), phi...)
		}
	}
	return out
}

func (g *mirrorGhost) Sources(bi int32, _ int) (pos, den []float64) { return g.pos[bi], g.den[bi] }

func (g *mirrorGhost) Counts(bi int32) (src, trg int) {
	b := &g.e.Tree.Boxes[bi]
	return b.SrcCount, b.TrgCount
}

// TestGhostOverOwnTreeIsBitwiseLocal pins that the local path is the
// ghost path with the tree as provider: a nil ghost and a ghost serving
// copies of the same tree give bitwise-identical potentials and the same
// counters, on a clustered set that takes U, X and both W paths, for a
// scalar and a tensor kernel.
func TestGhostOverOwnTreeIsBitwiseLocal(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const n = 1500
	pts := geom.Flatten(geom.CornerClusters(rng, n, 0.3, 1))
	for _, tc := range []struct {
		name string
		k    kernels.Kernel
	}{
		{"laplace", kernels.Laplace{}},
		{"stokes", kernels.NewStokes(1)},
	} {
		e, err := NewCtx(bg, pts, pts, Options{Kernel: tc.k, Degree: 4, MaxPoints: 80})
		if err != nil {
			t.Fatal(err)
		}
		sd := tc.k.SourceDim()
		den := geom.RandomDensities(rng, n, sd)
		want, wantSt, err := eval(bg, e, den)
		if err != nil {
			t.Fatal(err)
		}
		if wantSt.WDirect == 0 || wantSt.XDirect == 0 || wantSt.FlopsDownU == 0 {
			t.Fatalf("%s: geometry misses a near-field path: %+v", tc.name, wantSt)
		}
		g := &mirrorGhost{e: e, pden: make([]float64, len(den))}
		for i, orig := range e.Tree.SrcPerm {
			copy(g.pden[i*sd:(i+1)*sd], den[int(orig)*sd:(int(orig)+1)*sd])
		}
		root := obs.StartSpan("evaluate")
		got, gotSt, err := e.Evaluate(bg, [][]float64{den}, root, g)
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, tc.name, got[0], want)
		if g.exchanged != 1 {
			t.Errorf("%s: Exchange ran %d times, want once", tc.name, g.exchanged)
		}
		if gotSt.Flops() != wantSt.Flops() || gotSt.WDirect != wantSt.WDirect || gotSt.XDirect != wantSt.XDirect {
			t.Errorf("%s: ghost run counted %d flops, %d/%d direct W/X entries; local %d, %d/%d", tc.name,
				gotSt.Flops(), gotSt.WDirect, gotSt.XDirect, wantSt.Flops(), wantSt.WDirect, wantSt.XDirect)
		}
		if root.Find("up") == nil || root.Find("leaf") == nil {
			t.Errorf("%s: traced ghost run has no pass spans", tc.name)
		}
	}
}
