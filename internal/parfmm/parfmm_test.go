package parfmm

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/direct"
	"repro/internal/errs"
	"repro/internal/fmm"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/mpi"
)

func fastMachine() mpi.Machine {
	return mpi.Machine{Latency: 1e3, Bandwidth: 1e9}
}

func relErr(got, want []float64) float64 {
	num, den := 0.0, 0.0
	for i := range got {
		num += (got[i] - want[i]) * (got[i] - want[i])
		den += want[i] * want[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// TestParallelMatchesSequential: for every rank count the parallel
// algorithm must reproduce the sequential FMM to floating-point
// accumulation accuracy (identical operators, identical tree, and — both
// being internal/fmm — identical passes). The clustered case runs the
// point-to-point W/X rule on leaves whose points sit on two ranks, next
// to W members that keep the surface path; the Stokes case takes the
// engine's tensor-kernel paths over ghosts.
func TestParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spheres := geom.SphereGrid(rng, 1200, 2, 0.3)
	// Three overlapping patches per corner and one corner dropped, so for
	// every rank count a partition boundary falls inside a cluster and
	// its leaves have contributors on both sides.
	clusters := geom.CornerClusters(rng, 2400, 0.3, 3)[3:]
	for _, tc := range []struct {
		name      string
		patches   []geom.Patch
		kernel    kernels.Kernel
		degree, s int
		nprocs    []int
		shared    bool // small-leaf W members must span two ranks
	}{
		{"spheres", spheres, kernels.Laplace{}, 6, 30, []int{1, 2, 3, 5, 8}, false},
		{"clusters", clusters, kernels.Laplace{}, 4, 80, []int{1, 2, 3, 5, 8}, true},
		{"stokes", spheres, kernels.NewStokes(1), 4, 30, []int{2, 3, 5}, false},
	} {
		pts := geom.Flatten(tc.patches)
		den := geom.RandomDensities(rng, len(pts)/3, tc.kernel.SourceDim())
		seq, err := fmm.NewCtx(context.Background(), pts, pts, fmm.Options{Kernel: tc.kernel, Degree: tc.degree, MaxPoints: tc.s})
		if err != nil {
			t.Fatal(err)
		}
		wants, st, err := seq.Evaluate(context.Background(), [][]float64{den}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		want := wants[0]
		if tc.shared {
			var wEntries int64
			for i := range seq.Tree.Boxes {
				wEntries += int64(len(seq.Tree.Boxes[i].W))
			}
			if st.WDirect == 0 || st.XDirect == 0 || st.WDirect == wEntries {
				t.Fatalf("%s: want both W paths and the direct X path, got W direct %d of %d, X direct %d",
					tc.name, st.WDirect, wEntries, st.XDirect)
			}
		}
		for _, nproc := range tc.nprocs {
			if tc.shared && nproc > 1 {
				if n := sharedSmallLeafWMembers(seq, tc.patches, nproc); n == 0 {
					t.Fatalf("%s nproc=%d: no small-leaf W member has points on two ranks", tc.name, nproc)
				}
			}
			res, err := Evaluate(tc.patches, den, nproc, Options{
				Options: fmm.Options{Kernel: tc.kernel, Degree: tc.degree, MaxPoints: tc.s},
				Machine: fastMachine(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if e := relErr(res.Pot, want); e > 1e-11 {
				t.Errorf("%s nproc=%d: parallel differs from sequential by %v", tc.name, nproc, e)
			}
			if !tc.shared {
				continue
			}
			// One rule, one count: a rank counts an entry once per leaf it
			// holds targets of, so the per-rank counters re-derived from
			// the sequential tree and the partition must match exactly,
			// and a single rank must report the sequential figures.
			wantW, wantX := directEntriesByRank(seq, tc.patches, nproc)
			for r, rs := range res.Ranks {
				if rs.Stats.WDirect != wantW[r] || rs.Stats.XDirect != wantX[r] {
					t.Errorf("%s nproc=%d rank %d: W/X direct %d/%d, want %d/%d",
						tc.name, nproc, r, rs.Stats.WDirect, rs.Stats.XDirect, wantW[r], wantX[r])
				}
			}
			if nproc == 1 && (wantW[0] != st.WDirect || wantX[0] != st.XDirect) {
				t.Errorf("%s: one rank counts %d/%d direct entries, the sequential evaluator %d/%d",
					tc.name, wantW[0], wantX[0], st.WDirect, st.XDirect)
			}
		}
	}
}

// pointRanks returns the rank of every point (in geom.Flatten order)
// under the patch partition for nproc ranks.
func pointRanks(patches []geom.Patch, nproc int) []int {
	patchRank := make([]int, len(patches))
	for r, part := range partitionPatches(patches, nil, nproc) {
		for _, pi := range part {
			patchRank[pi] = r
		}
	}
	var rankOf []int
	for pi := range patches {
		for j := 0; j < patches[pi].Count(); j++ {
			rankOf = append(rankOf, patchRank[pi])
		}
	}
	return rankOf
}

// directEntriesByRank re-derives the per-rank WDirect/XDirect counters
// from the sequential tree (the global tree of the parallel run): the
// engine counts a W entry per leaf with local targets and small-leaf
// member, and a leaf's whole X list when the leaf itself is small.
func directEntriesByRank(seq *fmm.Evaluator, patches []geom.Patch, nproc int) (w, x []int64) {
	rankOf := pointRanks(patches, nproc)
	tr, surfN := seq.Tree, seq.Ops.Surf.N
	w, x = make([]int64, nproc), make([]int64, nproc)
	for bi := range tr.Boxes {
		b := &tr.Boxes[bi]
		holds := make([]bool, nproc)
		for i := b.TrgStart; i < b.TrgStart+b.TrgCount; i++ {
			holds[rankOf[tr.TrgPerm[i]]] = true
		}
		var nw int64
		for _, wi := range b.W {
			if wb := &tr.Boxes[wi]; wb.SmallLeaf(wb.SrcCount, surfN) {
				nw++
			}
		}
		for r, h := range holds {
			if !h {
				continue
			}
			if b.Leaf {
				w[r] += nw
			}
			if b.SmallLeaf(b.TrgCount, surfN) {
				x[r] += int64(len(b.X))
			}
		}
	}
	return w, x
}

// sharedSmallLeafWMembers counts the W-list members of the sequential
// tree (the global tree of the parallel run) that take the point-to-point
// path and whose points the patch partition spreads over more than one
// rank.
func sharedSmallLeafWMembers(seq *fmm.Evaluator, patches []geom.Patch, nproc int) int {
	rankOf := pointRanks(patches, nproc)
	tr := seq.Tree
	inW := make([]bool, len(tr.Boxes))
	for i := range tr.Boxes {
		for _, w := range tr.Boxes[i].W {
			inW[w] = true
		}
	}
	n := 0
	for wi, b := range tr.Boxes {
		if !inW[wi] || !b.SmallLeaf(b.SrcCount, seq.Ops.Surf.N) {
			continue
		}
		first := rankOf[tr.SrcPerm[b.SrcStart]]
		for i := b.SrcStart; i < b.SrcStart+b.SrcCount; i++ {
			if rankOf[tr.SrcPerm[i]] != first {
				n++
				break
			}
		}
	}
	return n
}

// TestParallelAccuracyAllKernels verifies the full parallel pipeline
// against direct summation for the paper's three kernels.
func TestParallelAccuracyAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("kernel sweep skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(2))
	patches := geom.CornerClusters(rng, 900, 0.35, 2)
	pts := geom.Flatten(patches)
	for _, k := range []kernels.Kernel{kernels.Laplace{}, kernels.NewModLaplace(1), kernels.NewStokes(1)} {
		den := geom.RandomDensities(rng, 900, k.SourceDim())
		res, err := Evaluate(patches, den, 4, Options{
			Options: fmm.Options{Kernel: k, Degree: 6, MaxPoints: 25},
			Machine: fastMachine(),
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := direct.Evaluate(k, pts, pts, den)
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(res.Pot, want); e > 2e-3 {
			t.Errorf("%s: parallel FMM error %v vs direct", k.Name(), e)
		}
	}
}

// TestStatsAndMetrics sanity-checks the per-rank accounting the
// scalability tables are built from.
func TestStatsAndMetrics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	patches := geom.SphereGrid(rng, 2000, 2, 0.3)
	den := geom.RandomDensities(rng, 2000, 1)
	res, err := Evaluate(patches, den, 4, Options{
		Options: fmm.Options{Kernel: kernels.Laplace{}, Degree: 6, MaxPoints: 30},
		Machine: mpi.DefaultMachine(), Iterations: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Ranks) != 4 {
		t.Fatalf("want 4 rank stats, got %d", len(res.Ranks))
	}
	for r, s := range res.Ranks {
		if s.Total <= 0 {
			t.Errorf("rank %d: no interaction time", r)
		}
		if s.TreeTime <= 0 {
			t.Errorf("rank %d: no tree time", r)
		}
		if s.Stats.FlopsUp <= 0 || s.Stats.FlopsDownU <= 0 {
			t.Errorf("rank %d: flop counters empty", r)
		}
		if s.Comm < 0 || s.Comm > s.Total {
			t.Errorf("rank %d: comm time %v outside total %v", r, s.Comm, s.Total)
		}
	}
	// Multi-rank runs must communicate.
	anyBytes := false
	for _, s := range res.Ranks {
		if s.BytesSent > 0 {
			anyBytes = true
		}
	}
	if !anyBytes {
		t.Error("no communication recorded on 4 ranks")
	}
	if res.Ratio() < 1 {
		t.Errorf("load imbalance ratio %v < 1", res.Ratio())
	}
	if res.MaxTotal() <= 0 {
		t.Error("MaxTotal must be positive")
	}
	if res.Boxes <= 1 || res.Depth < 2 {
		t.Errorf("implausible tree: %d boxes depth %d", res.Boxes, res.Depth)
	}
}

// TestSingleRankHasNoComm: with one rank the algorithm degenerates to
// the sequential method with zero point-to-point traffic.
func TestSingleRankHasNoComm(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	patches := geom.UniformCube(rng, 500)
	den := geom.RandomDensities(rng, 500, 1)
	res, err := Evaluate(patches, den, 1, Options{
		Options: fmm.Options{Kernel: kernels.Laplace{}, Degree: 5, MaxPoints: 25},
		Machine: fastMachine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ranks[0].BytesSent != 0 {
		t.Errorf("single rank sent %d bytes", res.Ranks[0].BytesSent)
	}
}

// TestOwnershipInvariants: rebuild the deterministic owner assignment on
// a driver-side replica and check the paper's rules.
func TestOwnershipInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	patches := geom.CornerClusters(rng, 1000, 0.35, 2)
	den := geom.RandomDensities(rng, 1000, 1)
	// Run with several rank counts; correctness of results plus the
	// single-owner communication pattern (no crash, no deadlock, right
	// answers) exercises the assignment.
	pts := geom.Flatten(patches)
	want, err := direct.Evaluate(kernels.Laplace{}, pts, pts, den)
	if err != nil {
		t.Fatal(err)
	}
	for _, nproc := range []int{2, 7} {
		res, err := Evaluate(patches, den, nproc, Options{
			Options: fmm.Options{Kernel: kernels.Laplace{}, Degree: 6, MaxPoints: 15},
			Machine: fastMachine(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if e := relErr(res.Pot, want); e > 2e-3 {
			t.Errorf("nproc=%d: error %v", nproc, e)
		}
	}
}

// TestValidationErrors covers the driver's input checks.
func TestValidationErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	patches := geom.UniformCube(rng, 10)
	if _, err := Evaluate(patches, make([]float64, 10), 2, Options{}); err == nil {
		t.Error("missing kernel must error")
	}
	if _, err := Evaluate(patches, make([]float64, 3), 2, Options{Options: fmm.Options{Kernel: kernels.Laplace{}}}); err == nil {
		t.Error("wrong density length must error")
	}
	if _, err := Evaluate(patches, make([]float64, 10), 0, Options{Options: fmm.Options{Kernel: kernels.Laplace{}}}); err == nil {
		t.Error("zero ranks must error")
	}
	// A degree no surface exists for is the caller's mistake: a typed
	// error before any rank starts, from both entry points — not a rank
	// panicking alone while its peers wait in a collective.
	for _, degree := range []int{-1, 2} {
		opt := Options{Options: fmm.Options{Kernel: kernels.Laplace{}, Degree: degree}}
		_, err := Evaluate(patches, make([]float64, 10), 2, opt)
		if code, _ := errs.CodeOf(err); code != errs.CodeInvalidInput {
			t.Errorf("Evaluate degree %d: error %v, want invalid_input", degree, err)
		}
		_, err = EvaluateRank(context.Background(), nil, &RankInput{}, opt)
		if code, _ := errs.CodeOf(err); code != errs.CodeInvalidInput {
			t.Errorf("EvaluateRank degree %d: error %v, want invalid_input", degree, err)
		}
	}
}

// TestDefaultsMatchSequential: both drivers default and clamp their
// options through fmm.ApplyDefaults, so out-of-range leaf thresholds and
// depth caps build the same tree in both.
func TestDefaultsMatchSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	patches := geom.SphereGrid(rng, 200, 2, 0.3)
	pts := geom.Flatten(patches)
	den := geom.RandomDensities(rng, len(pts)/3, 1)
	for _, maxPoints := range []int{-5, 0} {
		for _, maxDepth := range []int{-1, 0, 99} {
			seq, err := fmm.NewCtx(context.Background(), pts, pts, fmm.Options{Kernel: kernels.Laplace{}, Degree: 4, MaxPoints: maxPoints, MaxDepth: maxDepth})
			if err != nil {
				t.Fatal(err)
			}
			res, err := Evaluate(patches, den, 2, Options{
				Options: fmm.Options{Kernel: kernels.Laplace{}, Degree: 4, MaxPoints: maxPoints, MaxDepth: maxDepth},
				Machine: fastMachine(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Boxes != len(seq.Tree.Boxes) || res.Depth != seq.Tree.Depth() {
				t.Errorf("MaxPoints %d MaxDepth %d: parallel tree %d boxes depth %d, sequential %d boxes depth %d",
					maxPoints, maxDepth, res.Boxes, res.Depth, len(seq.Tree.Boxes), seq.Tree.Depth())
			}
		}
	}
}

// TestMoreRanksThanPatches: ranks without any patch must still
// participate correctly in the collectives and produce nothing.
func TestMoreRanksThanPatches(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	patches := geom.UniformCube(rng, 300) // a single patch
	den := geom.RandomDensities(rng, 300, 1)
	res, err := Evaluate(patches, den, 3, Options{
		Options: fmm.Options{Kernel: kernels.Laplace{}, Degree: 5, MaxPoints: 30},
		Machine: fastMachine(),
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := geom.Flatten(patches)
	want, _ := direct.Evaluate(kernels.Laplace{}, pts, pts, den)
	if e := relErr(res.Pot, want); e > 2e-2 {
		t.Errorf("error %v with idle ranks", e)
	}
}

// TestWorkEstimateFeedback implements the paper's proposed load-balance
// improvement: re-partitioning with the previous evaluation's per-patch
// work estimates must not hurt — and for non-uniform distributions it
// should reduce — the max/min imbalance ratio, while leaving the results
// identical.
func TestWorkEstimateFeedback(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	patches := geom.CornerClusters(rng, 2400, 0.3, 8)
	den := geom.RandomDensities(rng, 2400, 1)
	opt := Options{Options: fmm.Options{Kernel: kernels.Laplace{}, Degree: 5, MaxPoints: 20}, Machine: fastMachine()}
	first, err := Evaluate(patches, den, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.PatchWork) != len(patches) {
		t.Fatalf("PatchWork length %d, want %d", len(first.PatchWork), len(patches))
	}
	totalWork := int64(0)
	for _, w := range first.PatchWork {
		if w < 0 {
			t.Fatal("negative work estimate")
		}
		totalWork += w
	}
	if totalWork == 0 {
		t.Fatal("work estimates all zero")
	}
	// The estimate charges each W entry what it costs under the
	// point-to-point rule: the member's own source count when it is a
	// small leaf, a surface otherwise. Re-derive the total from the
	// sequential tree (the same global tree); charging a surface per
	// entry, as before the rule, would over-weight the clustered leaves.
	pts := geom.Flatten(patches)
	seq, err := fmm.NewCtx(context.Background(), pts, pts, fmm.Options{Kernel: opt.Kernel, Degree: opt.Degree, MaxPoints: opt.MaxPoints})
	if err != nil {
		t.Fatal(err)
	}
	surfN := seq.Ops.Surf.N
	var wantWork, surfacePerEntry int64
	for _, b := range seq.Tree.Boxes {
		if !b.Leaf {
			continue
		}
		uSrc, listSrc := 0, 2*surfN
		for _, u := range b.U {
			uSrc += seq.Tree.Boxes[u].SrcCount
		}
		for _, w := range b.W {
			if wb := &seq.Tree.Boxes[w]; wb.SmallLeaf(wb.SrcCount, surfN) {
				listSrc += wb.SrcCount
			} else {
				listSrc += surfN
			}
		}
		n := int64(b.SrcCount)
		wantWork += n * (kernels.P2PFlops(opt.Kernel, 1, uSrc) + kernels.P2PFlops(opt.Kernel, 1, listSrc))
		surfacePerEntry += n * (kernels.P2PFlops(opt.Kernel, 1, uSrc) + kernels.P2PFlops(opt.Kernel, 1, surfN*(len(b.W)+2)))
	}
	if totalWork != wantWork {
		t.Errorf("total work estimate %d, want %d", totalWork, wantWork)
	}
	if wantWork >= surfacePerEntry {
		t.Errorf("no small-leaf W member in this geometry: estimate %d not below the surface-per-entry figure %d", wantWork, surfacePerEntry)
	}
	opt.PatchWeights = first.PatchWork
	second, err := Evaluate(patches, den, 6, opt)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(second.Pot, first.Pot); e > 1e-11 {
		t.Errorf("re-partitioned run changed the results by %v", e)
	}
	// The balance claim is asserted on the per-rank flop counts, which
	// repeat exactly; Ratio() is a ratio of metered wall times and on a
	// shared machine reads anything (7.5-11.8 -> 1.55-2.6 over three runs).
	flopRatio := func(r *Result) float64 {
		lo, hi := int64(math.MaxInt64), int64(0)
		for _, rs := range r.Ranks {
			lo, hi = min(lo, rs.Stats.Flops()), max(hi, rs.Stats.Flops())
		}
		return float64(hi) / float64(lo)
	}
	t.Logf("max/min flops per rank: count-weighted %.3f -> work-weighted %.3f (timed imbalance ratio %.3f -> %.3f)",
		flopRatio(first), flopRatio(second), first.Ratio(), second.Ratio())
	if flopRatio(second) > flopRatio(first) {
		t.Errorf("work-weighted partitioning degraded the flop balance: %.3f -> %.3f", flopRatio(first), flopRatio(second))
	}
}

// TestPatchWeightsValidation rejects mismatched weight vectors.
func TestPatchWeightsValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	patches := geom.UniformCube(rng, 50)
	den := geom.RandomDensities(rng, 50, 1)
	_, err := Evaluate(patches, den, 2, Options{
		Options: fmm.Options{Kernel: kernels.Laplace{}},
		Machine: fastMachine(), PatchWeights: []int64{1, 2, 3},
	})
	if err == nil {
		t.Error("wrong PatchWeights length must error")
	}
}
