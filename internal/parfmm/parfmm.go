// Package parfmm implements what is distributed in the paper's parallel
// algorithm (Section 3): Morton-curve partitioning of input surface
// patches, contributor/owner/user roles, and the gather/scatter ghost
// exchange of Algorithm 1. The level-by-level construction of the global
// tree array is internal/tree's one builder, run over the rank's
// transport (tree.BuildGlobal): the local octree is its one-rank case.
//
// It owns no pass. "A processor performs its own computation ignoring
// the existence of other processors": a rank is an internal/fmm
// evaluation over the global tree holding the rank's own points, and
// this package is that evaluation's fmm.Ghost — it sums the partial
// upward densities across ranks at the engine's barrier between the
// upward and the downward pass, and serves the global sources of the
// leaves the near field reads. Up, U, V, W, X, L2L and L2T, their
// scratch, their cancellation checks and fmm.Stats are the engine's.
//
// Two drivers run the one program over two transports. Evaluate
// simulates nproc ranks on the in-process machine (mpi.Run); a cluster
// coordinator scatters EvaluateRank over TCP workers. Both partition
// with the one patch partition (a cluster request's points are one-point
// patches, PartitionPoints), run the one rank body, and place the ranks'
// potentials with Gather. The simulated driver adds only a warm-up
// evaluation and the averaging of Options.Iterations.
//
// As in the paper's experiments, the source and target point sets are
// identical.
package parfmm

import (
	"context"
	"strconv"
	"time"

	"repro/internal/errs"
	"repro/internal/exec"
	"repro/internal/fmm"
	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/translate"
)

// Options configure a parallel evaluation.
type Options struct {
	// Options are the evaluator options every rank builds its engine
	// with. EvaluateRank honours Workers and Pool: the rank's engine fans
	// out over the caller's lanes. The simulated Evaluate ignores them and
	// runs every rank on one lane of a pool of its own.
	fmm.Options
	// Machine is the communication model (default mpi.DefaultMachine).
	Machine mpi.Machine
	// Iterations repeats the interaction evaluation (the paper reports a
	// single interaction averaged over several iterations). Default 1.
	Iterations int
	// PatchWeights, when non-nil (one entry per patch), replaces the
	// particle-count weights of the Morton partitioning. The paper's
	// discussion proposes exactly this: "we plan to use workload
	// information from previous time steps for load balancing" — pass a
	// previous Result.PatchWork here.
	PatchWeights []int64
	// Trace records per-rank span timelines and the communication
	// ledger (every send/recv/collective with virtual timestamps and
	// wait times) and merges them into Result.Timeline. The ledger
	// observer and span bookkeeping run on the rank goroutines, so the
	// virtual clocks absorb a small tracing overhead.
	Trace bool
}

// RankStats records one rank's virtual-time breakdown, matching the
// stages of the paper's Figures 4.2/4.3.
type RankStats struct {
	// TreeTime is the virtual time of partitioning plus tree
	// construction, including its collectives ("Gen/Comm" in the tables).
	TreeTime time.Duration
	// Total is the virtual time of one interaction evaluation.
	Total time.Duration
	// Comm is the communication part of Total.
	Comm time.Duration
	// Stats breaks down the compute stages (Up, DownU/V/W/X, Eval).
	Stats fmm.Stats
	// BytesSent counts payload bytes this rank sent during evaluation.
	BytesSent int64
}

// Result of a parallel evaluation.
type Result struct {
	// Pot holds the potentials in the order of geom.Flatten(patches).
	Pot []float64
	// Ranks holds per-rank statistics (averaged over Iterations).
	Ranks []RankStats
	// Boxes is the global tree size, Depth its level count.
	Boxes, Depth int
	// PatchWork estimates the interaction work (flops) attributable to
	// each input patch, usable as Options.PatchWeights of a subsequent
	// evaluation (the paper's proposed time-step-to-time-step load
	// balancing).
	PatchWork []int64
	// MaxElapsed is the simulated wall clock of the whole run — tree
	// construction, warm-up and timed iterations — i.e. mpi.MaxElapsed
	// over the rank communicators.
	MaxElapsed time.Duration
	// Timeline is the merged distributed timeline (per-rank span trees
	// plus the communication ledger); nil unless Options.Trace.
	Timeline *obs.Timeline
}

// MaxTotal returns the slowest rank's interaction time — the simulated
// wall clock T(P) of the run.
func (r *Result) MaxTotal() time.Duration {
	var m time.Duration
	for _, s := range r.Ranks {
		if s.Total > m {
			m = s.Total
		}
	}
	return m
}

// Ratio returns the paper's load-imbalance indicator: the ratio of the
// maximum to the minimum per-rank interaction time.
func (r *Result) Ratio() float64 {
	if len(r.Ranks) == 0 {
		return 1
	}
	min, max := r.Ranks[0].Total, r.Ranks[0].Total
	for _, s := range r.Ranks[1:] {
		if s.Total < min {
			min = s.Total
		}
		if s.Total > max {
			max = s.Total
		}
	}
	if min <= 0 {
		return 1
	}
	return float64(max) / float64(min)
}

// engine validates opt and resolves it into the options every rank builds
// its engine with. fmm.ApplyDefaults is the call the sequential evaluator
// makes, so both drivers split the same boxes. The operator set is
// checked here, before any rank starts: a rank failing on its own would
// leave the others blocked in a collective.
func (opt Options) engine() (fmm.Options, error) {
	if opt.Kernel == nil {
		return fmm.Options{}, errs.New(errs.CodeInvalidInput, "parfmm: Options.Kernel is required")
	}
	eo := fmm.ApplyDefaults(opt.Options)
	if _, err := translate.NewSet(eo.Kernel, eo.Degree, 1, 0); err != nil {
		return fmm.Options{}, errs.Typed(err, errs.CodeInvalidInput)
	}
	return eo, nil
}

// Evaluate runs the parallel KIFMM on nproc simulated ranks. patches are
// the input surfaces (partitioned by weighted Morton order, Section 3.1);
// den holds SourceDim density components per point in the order of
// geom.Flatten(patches).
func Evaluate(patches []geom.Patch, den []float64, nproc int, opt Options) (*Result, error) {
	eo, err := opt.engine()
	if err != nil {
		return nil, err
	}
	if opt.Iterations <= 0 {
		opt.Iterations = 1
	}
	if opt.Machine == (mpi.Machine{}) {
		opt.Machine = mpi.DefaultMachine()
	}
	if nproc < 1 {
		return nil, errs.New(errs.CodeInvalidInput, "parfmm: need at least one rank")
	}
	sd := opt.Kernel.SourceDim()
	total := geom.TotalCount(patches)
	if len(den) != total*sd {
		return nil, errs.Newf(errs.CodeInvalidInput, "parfmm: density length %d, want %d", len(den), total*sd)
	}

	if opt.PatchWeights != nil && len(opt.PatchWeights) != len(patches) {
		return nil, errs.Newf(errs.CodeInvalidInput, "parfmm: PatchWeights length %d, want %d", len(opt.PatchWeights), len(patches))
	}
	pts, centers, starts := patchLayout(patches)
	inputs, idx := partition(pts, centers, starts, den, sd, opt.PatchWeights, nproc)

	stats := make([]RankStats, nproc)
	pots := make([][]float64, nproc)
	works := make([][]int64, nproc)
	timelines := make([]*obs.RankTimeline, nproc)
	rankErr := make([]error, nproc)
	var boxes, depth int
	// Simulated ranks run to completion by design (mpi.Run): cancelling
	// one would leave its peers blocked in a receive.
	ctx := context.TODO()
	comms := mpi.Run(nproc, opt.Machine, func(c *mpi.Comm) {
		r := c.Rank()
		// One lane on a pool of its own: the token clock meters one
		// goroutine, and ranks sharing a pool would deadlock in receives.
		ro := eo
		ro.Workers, ro.Pool = 1, exec.NewElastic(1)
		rk := newRank(c, inputs[r], ro, opt.Trace)
		timelines[r] = rk.tl
		rankErr[r] = rk.run(ctx, func() error { return rk.iterate(ctx, opt.Iterations, &stats[r]) })
		if rankErr[r] != nil {
			return
		}
		pots[r], works[r] = rk.pot, rk.pointWorkEstimate()
		if r == 0 {
			boxes, depth = len(rk.tree.Boxes), rk.tree.Depth()
		}
	})
	for _, err := range rankErr {
		if err != nil {
			return nil, err
		}
	}
	// A simulated rank's results match its share: Gather cannot fail.
	pot, _ := Gather(idx, opt.Kernel.TargetDim(), pots)
	pointWork, _ := Gather(idx, 1, works)
	patchWork := make([]int64, len(patches))
	for pi := range patches {
		for _, w := range pointWork[starts[pi]:starts[pi+1]] {
			patchWork[pi] += w
		}
	}

	res := &Result{
		Pot: pot, Ranks: stats, Boxes: boxes, Depth: depth,
		PatchWork: patchWork, MaxElapsed: mpi.MaxElapsed(comms),
	}
	if opt.Trace {
		res.Timeline = obs.MergeTimeline(timelines)
	}
	return res, nil
}

// iterate is what a simulated rank adds to the rank body: the tree
// construction's clock, an untimed warm-up evaluation, then the timed
// iterations averaged into rs.
func (rk *rank) iterate(ctx context.Context, iterations int, rs *RankStats) error {
	c := rk.c
	rs.TreeTime = c.Elapsed()

	// The translation operators and FFT tensors are built lazily on first
	// use, and the paper's timings (like any FMM production setting, where
	// the same tree serves tens of interaction evaluations) exclude that
	// setup cost. The measured iterations below see only steady-state work.
	if _, err := rk.evaluate(ctx, "warmup"); err != nil {
		return err
	}

	var totalT, commT time.Duration
	var bytes int64
	for it := 0; it < iterations; it++ {
		t0 := c.Elapsed()
		c0 := c.CommTime()
		b0 := c.BytesSent()
		st, err := rk.evaluate(ctx, "iteration")
		rk.iter.SetAttr("iter", strconv.Itoa(it))
		if err != nil {
			return err
		}
		totalT += c.Elapsed() - t0
		commT += c.CommTime() - c0
		bytes += c.BytesSent() - b0
		rs.Stats.Add(st)
	}
	n := time.Duration(iterations)
	rs.Total = totalT / n
	rs.Comm = commT / n
	rs.BytesSent = bytes / int64(iterations)
	return nil
}
