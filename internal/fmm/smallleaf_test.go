package fmm

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/direct"
	"repro/internal/exec"
	"repro/internal/geom"
	"repro/internal/kernels"
)

// TestSmallLeafRuleClustered: on a clustered set where W and X entries
// take the point-to-point path next to entries that keep their surface,
// the result stays within the clustered-accuracy tolerance of direct
// summation, is bitwise identical for every lane width, and a batch is
// its single evaluations bit for bit.
func TestSmallLeafRuleClustered(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const n = 3000
	pts := geom.Flatten(geom.CornerClusters(rng, n, 0.3, 1))
	k := kernels.Laplace{}
	// Degree 4 has 56 surface points; with s = 80 leaves fall on both
	// sides of the threshold.
	newEval := func(lanes int) *Evaluator {
		e, err := NewCtx(bg, pts, pts, Options{Kernel: k, Degree: 4, MaxPoints: 80, Workers: lanes, Pool: exec.NewElastic(4)})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	dens := make([][]float64, 3)
	for q := range dens {
		dens[q] = geom.RandomDensities(rng, n, 1)
	}

	e := newEval(1)
	var wEntries int64
	for i := range e.Tree.Boxes {
		wEntries += int64(len(e.Tree.Boxes[i].W))
	}
	singles := make([][]float64, len(dens))
	var st Stats
	for q := range dens {
		var err error
		if singles[q], st, err = eval(bg, e, dens[q]); err != nil {
			t.Fatal(err)
		}
	}
	if st.WDirect == 0 || st.WDirect == wEntries || st.XDirect == 0 || st.XDirect == wEntries {
		t.Fatalf("want both paths on both lists: W direct %d, X direct %d of %d entries", st.WDirect, st.XDirect, wEntries)
	}
	want, err := direct.Evaluate(k, pts, pts, dens[0])
	if err != nil {
		t.Fatal(err)
	}
	// The clustered-set tolerance of TestFMMAccuracyClustered.
	if e := relErr(singles[0], want); e > 2e-3 {
		t.Errorf("error vs direct %v", e)
	}

	for _, lanes := range []int{2, 4} {
		got, _, err := eval(bg, newEval(lanes), dens[0])
		if err != nil {
			t.Fatal(err)
		}
		assertBitwise(t, "lanes", got, singles[0])
	}

	batch, bst, err := e.Evaluate(bg, dens, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for q := range batch {
		if err := assertSameBits(fmt.Sprintf("batch vector %d", q), batch[q], singles[q]); err != nil {
			t.Error(err)
		}
	}
	// One batch takes each list entry's path once, not once per
	// right-hand side.
	if bst.WDirect != st.WDirect || bst.XDirect != st.XDirect {
		t.Errorf("batch counters W %d X %d, single W %d X %d", bst.WDirect, bst.XDirect, st.WDirect, st.XDirect)
	}
}

// assertBitwise fails unless got and want hold the same bits at every
// index: +0 and -0 differ, and any two NaNs agree.
func assertBitwise(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: differs at %d: %g vs %g", what, i, got[i], want[i])
		}
	}
}

// farOctantGeometry builds the smallest tree in which the X list is a
// box's only downward contribution: nA points in the octant at
// (-1,-1,-1), which stays a leaf A, and nChild points in each of the
// eight sub-octants of the octant at (+1,+1,+1), which splits once into
// leaf children. The seven children that do not touch A at the origin
// are W(A), A is their whole X list, and no box has a V-list entry or a
// parent with a local expansion.
func farOctantGeometry(rng *rand.Rand, nA, nChild int) []float64 {
	var pts []float64
	box := func(n int, lo [3]float64, w float64) {
		for i := 0; i < n; i++ {
			for d := 0; d < 3; d++ {
				pts = append(pts, lo[d]+w*(0.1+0.8*rng.Float64()))
			}
		}
	}
	box(nA, [3]float64{-1, -1, -1}, 1)
	for o := 0; o < 8; o++ {
		box(nChild, [3]float64{0.5 * float64(o>>2&1), 0.5 * float64(o>>1&1), 0.5 * float64(o&1)}, 0.5)
	}
	// Pin the root cube to [-1,1]^3.
	return append(pts, -1, -1, -1, 1, 1, 1)
}

// TestSmallLeafRuleOnlyXDirect: when a leaf's only downward contribution
// is an X list applied point to point, it never gets a check potential or
// a local expansion (no inversion, no L2T anywhere: FlopsEval is zero),
// and since W goes direct too every interaction is a kernel evaluation
// between points — the FMM result is direct summation up to rounding,
// where the surface path was good for 1e-5 at this degree.
func TestSmallLeafRuleOnlyXDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	pts := farOctantGeometry(rng, 10, 20)
	n := len(pts) / 3
	k := kernels.Laplace{}
	e, err := NewCtx(bg, pts, pts, Options{Kernel: k, Degree: 6, MaxPoints: 60})
	if err != nil {
		t.Fatal(err)
	}
	den := geom.RandomDensities(rng, n, 1)
	got, st, err := eval(bg, e, den)
	if err != nil {
		t.Fatal(err)
	}
	if st.WDirect != 7 || st.XDirect != 7 {
		t.Fatalf("W direct %d, X direct %d, want 7 and 7", st.WDirect, st.XDirect)
	}
	if st.FlopsEval != 0 || st.FlopsDownV != 0 {
		t.Errorf("a box got a local expansion: eval flops %d, V flops %d", st.FlopsEval, st.FlopsDownV)
	}
	want, err := direct.Evaluate(k, pts, pts, den)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(got, want); e > 1e-14 {
		t.Errorf("all-direct evaluation differs from direct summation by %v", e)
	}
}

// TestSmallLeafRuleDistinctSourceTarget: the W side of the rule counts a
// member's sources, the X side a box's targets. With many sources and few
// targets per far child only X goes direct; with the sets swapped only W
// does.
func TestSmallLeafRuleDistinctSourceTarget(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	many := farOctantGeometry(rng, 10, 160) // 160 > 152 surface points
	few := farOctantGeometry(rng, 10, 10)
	k := kernels.Laplace{}
	for _, tc := range []struct {
		name             string
		src, trg         []float64
		wDirect, xDirect int64
	}{
		{"many sources, few targets", many, few, 0, 7},
		{"few sources, many targets", few, many, 7, 0},
	} {
		e, err := NewCtx(bg, tc.src, tc.trg, Options{Kernel: k, Degree: 6, MaxPoints: 200})
		if err != nil {
			t.Fatal(err)
		}
		den := geom.RandomDensities(rng, len(tc.src)/3, 1)
		got, st, err := eval(bg, e, den)
		if err != nil {
			t.Fatal(err)
		}
		if st.WDirect != tc.wDirect || st.XDirect != tc.xDirect {
			t.Errorf("%s: W direct %d, X direct %d, want %d and %d", tc.name, st.WDirect, st.XDirect, tc.wDirect, tc.xDirect)
		}
		want, err := direct.Evaluate(k, tc.trg, tc.src, den)
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(got, want); e > 1e-6 {
			t.Errorf("%s: error vs direct %v", tc.name, e)
		}
	}
}
