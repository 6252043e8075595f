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
// source points (flat xyz), their densities (SourceDim components per
// point) and the points' indices in the caller's global order, used to
// scatter the computed potentials back.
type RankInput struct {
	Pts       []float64
	Den       []float64
	GlobalIdx []int32
}

// RankOutput is what one rank's evaluation produces.
type RankOutput struct {
	// Pot holds the rank's local potentials (TargetDim components per
	// point), aligned with RankInput.GlobalIdx.
	Pot []float64
	// Boxes is the global tree size, Depth its level count.
	Boxes, Depth int
	// Timeline is the rank's span tree and communication ledger; nil
	// unless Options.Trace.
	Timeline *obs.RankTimeline
}

// PartitionPoints Morton-partitions n points (flat xyz in src, sd
// density components per point in den) into nproc contiguous
// rank shares — the coordinator-side half of the paper's Section 3.1
// partitioning, with unit weight per point. Every point lands in
// exactly one share; shares may be empty when nproc > n.
func PartitionPoints(src, den []float64, sd, nproc int) []*RankInput {
	n := len(src) / 3
	cc, chw := geom.BoundingCube(src)
	items := make([]morton.Weighted, n)
	for i := 0; i < n; i++ {
		items[i] = morton.Weighted{
			Key:    morton.PointKey(src[3*i], src[3*i+1], src[3*i+2], cc, chw),
			Weight: 1,
			Index:  i,
		}
	}
	parts := morton.Partition(items, nproc)
	inputs := make([]*RankInput, nproc)
	for r := 0; r < nproc; r++ {
		in := &RankInput{
			Pts:       make([]float64, 0, 3*len(parts[r])),
			Den:       make([]float64, 0, sd*len(parts[r])),
			GlobalIdx: make([]int32, 0, len(parts[r])),
		}
		for _, g := range parts[r] {
			in.Pts = append(in.Pts, src[3*g:3*g+3]...)
			in.Den = append(in.Den, den[g*sd:(g+1)*sd]...)
			in.GlobalIdx = append(in.GlobalIdx, int32(g))
		}
		inputs[r] = in
	}
	return inputs
}

// EvaluateRank runs one rank of the parallel algorithm over transport t:
// the global tree construction (tree.BuildGlobal, which issues the same
// collectives in the same order on every rank and so does not validate
// the rank's points; the service checks coordinates before it fans a
// request out), owner assignment and a single
// interaction evaluation (the engine's passes, with the Algorithm-1
// ghost exchanges on the wire when t is a network transport). It is the
// entry point cluster workers drive; the simulated Evaluate keeps its own
// loop for the warmup/iteration timing protocol. The engine holds its
// lease from opt.Pool across the ghost exchange: no other rank may wait
// on that pool.
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
	if err := rk.prepare(ctx); err != nil {
		return nil, errs.FromContext(err)
	}
	defer rk.eng.Close()
	if _, err = rk.evaluate(ctx, "iteration"); err != nil {
		return nil, err
	}
	rk.root().End()
	return &RankOutput{
		Pot:      rk.pot,
		Boxes:    len(rk.tree.Boxes),
		Depth:    rk.tree.Depth(),
		Timeline: rk.tl,
	}, nil
}
