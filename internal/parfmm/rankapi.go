package parfmm

import (
	"context"

	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/morton"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// RankInput is one rank's share of a distributed evaluation: its local
// source points (flat xyz) and their densities (SourceDim components per
// point). The driver keeps where they sit in its global order.
type RankInput struct {
	Pts []float64
	Den []float64
}

// RankOutput is what one rank's evaluation produces.
type RankOutput struct {
	// Pot holds the rank's local potentials (TargetDim components per
	// point), in the order of its RankInput.
	Pot []float64
	// Timeline is the rank's span tree and communication ledger; nil
	// unless Options.Trace.
	Timeline *obs.RankTimeline
}

// partition assigns whole patches to nproc ranks along the Morton curve
// of their centers (Section 3.1) and assembles each rank's input. Patch i
// is the points pts[3*starts[i]:3*starts[i+1]] (flat xyz; den holds sd
// components per point), keyed by its center centers[3*i:3*i+3] and
// weighted by its point count or, when weights is non-nil, by weights[i]
// (floored at 1). The keys' cube bounds the centers; only relative order
// matters. idx[r] lists rank r's points' indices in pts. A share is empty
// when nproc exceeds the patches.
func partition(pts, centers []float64, starts []int, den []float64, sd int, weights []int64, nproc int) (ins []*RankInput, idx [][]int32) {
	cc, chw := geom.BoundingCube(centers)
	items := make([]morton.Weighted, len(starts)-1)
	for i := range items {
		w := int64(starts[i+1] - starts[i])
		if weights != nil {
			w = max(weights[i], 1)
		}
		c := centers[3*i : 3*i+3]
		items[i] = morton.Weighted{Key: morton.PointKey(c[0], c[1], c[2], cc, chw), Weight: w, Index: i}
	}
	ins, idx = make([]*RankInput, nproc), make([][]int32, nproc)
	for r, part := range morton.Partition(items, nproc) {
		n := 0
		for _, pi := range part {
			n += starts[pi+1] - starts[pi]
		}
		in := &RankInput{Pts: make([]float64, 0, 3*n), Den: make([]float64, 0, sd*n)}
		idx[r] = make([]int32, 0, n)
		for _, pi := range part {
			a, b := starts[pi], starts[pi+1]
			in.Pts = append(in.Pts, pts[3*a:3*b]...)
			in.Den = append(in.Den, den[a*sd:b*sd]...)
			for g := a; g < b; g++ {
				idx[r] = append(idx[r], int32(g))
			}
		}
		ins[r] = in
	}
	return ins, idx
}

// patchLayout lays patches out for partition: their points flattened,
// their centers, and the first point of each (one more entry, the total).
func patchLayout(patches []geom.Patch) (pts, centers []float64, starts []int) {
	centers = make([]float64, 0, 3*len(patches))
	starts = make([]int, len(patches)+1)
	for i := range patches {
		centers = append(centers, patches[i].Center[:]...)
		starts[i+1] = starts[i] + patches[i].Count()
	}
	return geom.Flatten(patches), centers, starts
}

// PartitionPoints Morton-partitions n points (flat xyz in src, sd density
// components per point in den) into nproc rank shares: the patch
// partition of Section 3.1 with every point its own patch, so the centers
// are the points themselves. idx[r] lists rank r's points' indices in
// src, for Gather.
func PartitionPoints(src, den []float64, sd, nproc int) (ins []*RankInput, idx [][]int32) {
	starts := make([]int, len(src)/3+1)
	for i := range starts {
		starts[i] = i
	}
	return partition(src, src, starts, den, sd, nil, nproc)
}

// Gather places each rank's results (dim values per point, in the order
// of the rank's input) at their points' indices idx[r] in the caller's
// global order. A rank whose result does not hold dim values per point
// of its share is an internal error.
func Gather[T float64 | int64](idx [][]int32, dim int, parts [][]T) ([]T, error) {
	n := 0
	for _, ix := range idx {
		n += len(ix)
	}
	out := make([]T, n*dim)
	for r, ix := range idx {
		if len(parts[r]) != len(ix)*dim {
			return nil, errs.Newf(errs.CodeInternal, "kifmm: rank %d returned %d values, want %d", r, len(parts[r]), len(ix)*dim)
		}
		for i, g := range ix {
			copy(out[int(g)*dim:(int(g)+1)*dim], parts[r][i*dim:(i+1)*dim])
		}
	}
	return out, nil
}

// EvaluateRank runs one rank of the parallel algorithm over transport t,
// the entry point cluster workers drive: the rank body the simulated
// Evaluate runs too, with a single interaction evaluation. The global
// tree construction (tree.BuildGlobal) issues the same collectives in the
// same order on every rank and so does not validate the rank's points;
// the service checks coordinates before it fans a request out. The
// engine holds its lease from opt.Pool across the ghost exchange: no
// other rank may wait on that pool.
//
// Cancelling ctx stops the rank's tree construction within one level and
// its compute within one chunk of a pass, and returns the typed context
// error. A rank blocked in a receive or a collective is not woken by ctx;
// the transport's owner aborts it. Transport failures surface as panics
// (the Transport contract); the caller recovers at the rank boundary.
func EvaluateRank(ctx context.Context, t mpi.Transport, in *RankInput, opt Options) (*RankOutput, error) {
	eo, err := opt.engine()
	if err != nil {
		return nil, err
	}
	sd := opt.Kernel.SourceDim()
	if len(in.Den) != len(in.Pts)/3*sd {
		return nil, errs.Newf(errs.CodeInvalidInput, "parfmm: rank density length %d, want %d", len(in.Den), len(in.Pts)/3*sd)
	}
	rk := newRank(t, in, eo, opt.Trace)
	err = rk.run(ctx, func() error {
		_, err := rk.evaluate(ctx, "iteration")
		return err
	})
	if err != nil {
		return nil, err
	}
	return &RankOutput{Pot: rk.pot, Timeline: rk.tl}, nil
}
