// Package kifmm is a kernel-independent fast multipole method for
// second-order constant-coefficient non-oscillatory elliptic PDE kernels
// in three dimensions, reproducing Ying, Biros, Zorin & Langston, "A New
// Parallel Kernel-Independent Fast Multipole Method" (SC 2003).
//
// The method computes, for N source densities φ_j at points y_j and
// targets x_i,
//
//	u_i = Σ_j G(x_i, y_j) φ_j
//
// in O(N) time without any analytic expansion of the kernel G: multipole
// and local expansions are replaced by equivalent densities on cube
// surfaces, constructed by solving small exterior/interior Dirichlet
// problems (regularized pseudo-inverses of kernel matrices), and the
// multipole-to-local translations are accelerated with FFTs.
//
// Four kernels are built in — Laplace, modified Laplace (screened
// Coulomb), Stokes and Kelvin — and any kernels.Kernel implementation
// works.
//
// Basic use:
//
//	ev, err := kifmm.NewEvaluatorCtx(ctx, points, points, kifmm.Options{Kernel: kifmm.Laplace()})
//	pot, err := ev.EvaluateCtx(ctx, densities)
//
// The API is context-first (NewEvaluatorCtx, EvaluateCtx,
// EvaluateBatchCtx, SolveGMRESCtx): cancelling the context aborts the
// work within one FMM pass and returns a typed error (see Error and the
// Err* sentinels in errors.go) that satisfies both kifmm.ErrCanceled and
// context.Canceled. A caller that needs no cancellation passes
// context.Background(); there are no ctx-free twins.
//
// Evaluation fans its per-box work over worker lanes leased per call
// from an elastic pool (Options.Workers is the ceiling, Options.Pool
// the scheduling domain): one call on an idle pool uses the whole
// machine, concurrent calls negotiate their widths — with bitwise
// identical results at every width. Evaluation is read-only on the
// prepared plan, so one Evaluator serves concurrent callers;
// EvaluateBatchCtx amortizes tree traversal and near-field kernel
// evaluations over many density vectors at once.
//
// The parallel algorithm of the paper (local essential trees, global
// tree array, owner-coordinated ghost exchange) runs on simulated MPI
// ranks via EvaluateParallel.
//
// This package is a view of the engine, not a copy of it: Options, Pool,
// Lease and ParallelOptions — like Kernel, Patch, Machine, KernelSpec and
// ParallelResult — are aliases of the types the engine itself uses
// (fmm.Options, exec.Elastic, exec.Lease, parfmm.Options), so their
// fields and methods are documented there, once.
package kifmm

import (
	"context"

	"repro/internal/direct"
	"repro/internal/fmm"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/parfmm"
)

// Kernel is the pairwise interaction kernel interface; see
// internal/kernels for the contract.
type Kernel = kernels.Kernel

// Laplace returns the 3-D Laplace single-layer kernel 1/(4πr).
func Laplace() Kernel { return kernels.Laplace{} }

// ModLaplace returns the modified Laplace (screened Coulomb / Yukawa)
// kernel e^(-λr)/(4πr).
func ModLaplace(lambda float64) Kernel { return kernels.NewModLaplace(lambda) }

// Stokes returns the Stokeslet kernel 1/(8πμ)(I/r + r⊗r/r³).
func Stokes(mu float64) Kernel { return kernels.NewStokes(mu) }

// Kelvin returns the 3-D linear-elasticity fundamental solution
// (Kelvinlet) with shear modulus mu and Poisson ratio nu.
func Kelvin(mu, nu float64) Kernel { return kernels.NewKelvin(mu, nu) }

// KernelByName resolves "laplace", "modlaplace", "stokes" or "kelvin".
func KernelByName(name string) (Kernel, error) { return kernels.ByName(name) }

// Options configure an Evaluator. It is the engine's own type: the
// fields, their defaults (fmm.ApplyDefaults: degree 6 surfaces for ~1e-5
// relative error with Laplace, leaf threshold s=60, one worker per
// logical CPU) and which of them PlanKey hashes are documented on
// fmm.Options.
type Options = fmm.Options

// Evaluator is a prepared FMM: an adaptive octree over fixed source and
// target points plus cached translation operators. Build once, call
// EvaluateCtx for every new density vector (e.g. per Krylov iteration).
// Evaluation is read-only on the prepared plan, so one Evaluator is
// safe for concurrent callers.
type Evaluator struct {
	inner *fmm.Evaluator
}

// NewEvaluatorCtx builds the octree and operators over src and trg, flat
// (x0,y0,z0,x1,...) coordinate slices which may be the same slice.
// Construction is the expensive amortized step (octree plus
// translation-operator setup), so ctx is checked at each internal stage
// boundary; a caller that gives up — a disconnecting service client, a
// deadline — abandons the build with a typed cancellation error instead
// of paying for a plan nobody will use.
func NewEvaluatorCtx(ctx context.Context, src, trg []float64, opt Options) (*Evaluator, error) {
	inner, err := fmm.NewCtx(ctx, src, trg, opt)
	if err != nil {
		return nil, err
	}
	return &Evaluator{inner: inner}, nil
}

// EvaluateCtx computes the potentials induced by den (SourceDim
// components per source, input order); the result has TargetDim
// components per target in input order. The context is threaded into
// every pass of the sweep and checked at each dispatch, level barrier
// and work-chunk claim, so a cancellation or deadline aborts the
// evaluation within one pass; the returned error then satisfies
// errors.Is against both ErrCanceled (or ErrDeadlineExceeded) and the
// matching context sentinel. EvaluateBatchTracedCtx also returns the
// call's stage breakdown.
func (e *Evaluator) EvaluateCtx(ctx context.Context, den []float64) ([]float64, error) {
	pots, _, err := e.inner.Evaluate(ctx, [][]float64{den}, nil, nil)
	if err != nil {
		return nil, err
	}
	return pots[0], nil
}

// EvaluateBatchCtx evaluates several density vectors in one sweep of the
// tree, amortizing traversal and near-field kernel evaluations across
// the batch — the shape Krylov solvers with multiple right-hand sides
// and the evaluation service's batch endpoint use. Results match
// per-vector EvaluateCtx calls to accumulation-order rounding; see
// EvaluateCtx for the cancellation contract.
func (e *Evaluator) EvaluateBatchCtx(ctx context.Context, dens [][]float64) ([][]float64, error) {
	pots, _, err := e.inner.Evaluate(ctx, dens, nil, nil)
	return pots, err
}

// EvaluateBatchTracedCtx is EvaluateBatchCtx returning this call's own
// stage breakdown plus a wall-clock trace: the span tree records the evaluation (root), each
// pass (permute/up/down/leaf/unpermute) and each tree level within the
// up and down passes. Pass spans are wall time of the parallel sweep,
// while Stats stages sum compute time across lanes — they agree only at
// width 1. The tree is finished and owned by the caller; on error it holds
// the passes the call got through, so a failed or cancelled evaluation
// still shows where it stopped. Tracing costs a handful of small
// allocations per call.
func (e *Evaluator) EvaluateBatchTracedCtx(ctx context.Context, dens [][]float64) ([][]float64, fmm.Stats, *obs.Span, error) {
	root := obs.StartSpan("evaluate")
	pots, st, err := e.inner.Evaluate(ctx, dens, root, nil)
	root.End() // the engine ends it on success only
	return pots, st, root, err
}

// Workers returns the width ceiling of one evaluation (the widest lane
// lease a call can be granted); the Stats.Lanes a call returns reports
// what it actually got.
func (e *Evaluator) Workers() int { return e.inner.Workers() }

// FootprintBytes estimates the resident memory of the prepared plan:
// the octree plus this plan's share of the operators it uses (operators
// are shared between plans over the same kernel, degree and box size and
// divided by the number of open plans holding them, so summing
// FootprintBytes over live plans counts each byte once). The evaluation
// service uses it for byte-bounded plan caching.
func (e *Evaluator) FootprintBytes() int64 { return e.inner.FootprintBytes() }

// Close gives up the plan's hold on its translation operators: those no
// other open plan uses are freed, apart from a small fixed retention that
// keeps the most recently released ones warm for the next plan. Call it
// when discarding an evaluator (e.g. on cache eviction); an evaluator
// never closed pins its operators for the life of the process. The
// evaluator remains usable afterwards. Idempotent.
func (e *Evaluator) Close() { e.inner.Close() }

// Boxes returns the number of octree boxes (diagnostics).
func (e *Evaluator) Boxes() int { return len(e.inner.Tree.Boxes) }

// Depth returns the octree depth.
func (e *Evaluator) Depth() int { return e.inner.Tree.Depth() }

// Direct computes the reference O(N²) summation (for verification).
func Direct(k Kernel, trg, src, den []float64) ([]float64, error) {
	return direct.Evaluate(k, trg, src, den)
}

// Patch re-exports the surface-patch input of the parallel driver.
type Patch = geom.Patch

// Machine re-exports the interconnect model of the MPI simulation.
type Machine = mpi.Machine

// DefaultMachine models a Quadrics-class interconnect (the paper's
// TCS-1 platform).
func DefaultMachine() Machine { return mpi.DefaultMachine() }

// ParallelOptions configure EvaluateParallel: the evaluator Options
// (embedded, so ParallelOptions{Options: ..., Machine: ...} reads as
// before) plus the interconnect model, the iteration count, the
// partitioning weights a previous ParallelResult.PatchWork feeds and the
// trace switch. It is the parallel driver's own type; see parfmm.Options.
type ParallelOptions = parfmm.Options

// ParallelResult re-exports the parallel run result (potentials plus
// per-rank statistics).
type ParallelResult = parfmm.Result

// EvaluateParallel runs the paper's parallel algorithm on nproc
// simulated MPI ranks. patches are the input surfaces (partitioned along
// the Morton curve, weighted by particle count); den holds the densities
// in the order of FlattenPatches(patches). Source and target sets are
// identical, as in the paper's experiments.
func EvaluateParallel(patches []Patch, den []float64, nproc int, opt ParallelOptions) (*ParallelResult, error) {
	return parfmm.Evaluate(patches, den, nproc, opt)
}

// FlattenPatches concatenates patch points into one flat slice.
func FlattenPatches(patches []Patch) []float64 { return geom.Flatten(patches) }
