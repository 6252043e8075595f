package kifmm

import (
	"context"

	"repro/internal/krylov"
)

// The paper's applications wrap the FMM in a Krylov method: "at each
// time step we solve a linear system that requires tens of interaction
// calculations". These re-exports provide the solvers (the paper used
// PETSc's). The context is checked before every operator application
// and handed to the operator itself, so cancelling mid-solve aborts the
// in-flight FMM evaluation within one pass instead of finishing the
// iteration sweep.

// MatVecCtx is a context-aware operator application dst = A*x; dst and
// x have equal length and do not alias, and a returned error aborts the
// solve. Evaluator.EvaluateCtx wraps directly:
//
//	mv := func(ctx context.Context, dst, x []float64) error {
//		pot, err := ev.EvaluateCtx(ctx, x)
//		if err == nil {
//			copy(dst, pot)
//		}
//		return err
//	}
type MatVecCtx = krylov.MatVecCtx

// SolverOptions control the Krylov iterations.
type SolverOptions = krylov.Options

// SolverResult reports Krylov convergence.
type SolverResult = krylov.Result

// BatchMatVecCtx is the context-aware batched operator application,
// ys[i] = A*xs[i] — the shape of Evaluator.EvaluateBatchCtx.
type BatchMatVecCtx = krylov.BatchMatVecCtx

// SolveGMRESCtx solves A x = b by restarted GMRES under ctx; x is the
// initial guess and is overwritten with the current iterate. On
// cancellation the partial result is returned with an error satisfying
// errors.Is against both ErrCanceled (or ErrDeadlineExceeded) and the
// matching context sentinel.
func SolveGMRESCtx(ctx context.Context, apply MatVecCtx, b, x []float64, opt SolverOptions) (SolverResult, error) {
	return krylov.GMRESCtx(ctx, apply, b, x, opt)
}

// SolveGMRESBatchCtx solves many systems sharing one operator (e.g. a
// boundary integral equation with many boundary conditions), running
// the per-system GMRES iterations in lockstep so each round of operator
// applications becomes a single batched call. With an FMM operator each
// system gets the bits of its own evaluation, while the tree traversal,
// operator fetches, FFT M2L tensor loads and (for every kernel but
// Laplace) near-field pair geometry are paid once per round instead of
// once per system; see Evaluator.EvaluateBatchCtx.
// xs[i] is the initial guess of system i, overwritten with its
// solution. Cancelling ctx aborts every in-flight system.
func SolveGMRESBatchCtx(ctx context.Context, apply BatchMatVecCtx, bs, xs [][]float64, opt SolverOptions) ([]SolverResult, error) {
	return krylov.GMRESBatchCtx(ctx, apply, bs, xs, opt)
}

// SolveBiCGSTABCtx solves A x = b by BiCGSTAB under ctx; cancellation
// semantics match SolveGMRESCtx.
func SolveBiCGSTABCtx(ctx context.Context, apply MatVecCtx, b, x []float64, opt SolverOptions) (SolverResult, error) {
	return krylov.BiCGSTABCtx(ctx, apply, b, x, opt)
}
