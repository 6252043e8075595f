package kifmm

import (
	"context"

	"repro/internal/krylov"
)

// The paper's applications wrap the FMM in a Krylov method: "at each
// time step we solve a linear system that requires tens of interaction
// calculations". These re-exports provide the solvers (the paper used
// PETSc's). The ctx-first variants are the real implementations: the
// context is checked before every operator application and handed to
// the operator itself, so cancelling mid-solve aborts the in-flight FMM
// evaluation within one pass instead of finishing the iteration sweep.

// MatVec is a ctx-oblivious operator application dst = A*x. dst and x
// have equal length and do not alias.
type MatVec func(dst, x []float64)

// lift adapts a ctx-oblivious operator to the ctx-first solvers.
func (apply MatVec) lift() MatVecCtx {
	return func(_ context.Context, dst, x []float64) error {
		apply(dst, x)
		return nil
	}
}

// MatVecCtx is a context-aware operator application dst = A*x; a
// returned error aborts the solve. Evaluator.EvaluateCtx wraps directly:
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

// BatchMatVec applies the operator to many vectors at once,
// ys[i] = A*xs[i], without a context.
type BatchMatVec func(xs [][]float64) ([][]float64, error)

// BatchMatVecCtx is the context-aware batched operator application —
// the shape of Evaluator.EvaluateBatchCtx.
type BatchMatVecCtx = krylov.BatchMatVecCtx

// SolveGMRESCtx solves A x = b by restarted GMRES under ctx; x is the
// initial guess and is overwritten with the current iterate. On
// cancellation the partial result is returned with an error satisfying
// errors.Is against both ErrCanceled (or ErrDeadlineExceeded) and the
// matching context sentinel.
func SolveGMRESCtx(ctx context.Context, apply MatVecCtx, b, x []float64, opt SolverOptions) (SolverResult, error) {
	return krylov.GMRESCtx(ctx, apply, b, x, opt)
}

// SolveGMRES solves A x = b by restarted GMRES; it is SolveGMRESCtx
// with context.Background() and a ctx-oblivious operator.
func SolveGMRES(apply MatVec, b, x []float64, opt SolverOptions) (SolverResult, error) {
	return krylov.GMRESCtx(context.Background(), apply.lift(), b, x, opt) //lint:allow ctxfirst documented legacy ctx-free wrapper over SolveGMRESCtx
}

// SolveGMRESBatchCtx solves many systems sharing one operator (e.g. a
// boundary integral equation with many boundary conditions), running
// the per-system GMRES iterations in lockstep so each round of operator
// applications becomes a single batched call. With an FMM operator the
// tree traversal and near-field kernel evaluations are then paid once
// per round instead of once per system; see Evaluator.EvaluateBatchCtx.
// xs[i] is the initial guess of system i, overwritten with its
// solution. Cancelling ctx aborts every in-flight system.
func SolveGMRESBatchCtx(ctx context.Context, apply BatchMatVecCtx, bs, xs [][]float64, opt SolverOptions) ([]SolverResult, error) {
	return krylov.GMRESBatchCtx(ctx, apply, bs, xs, opt)
}

// SolveGMRESBatch is SolveGMRESBatchCtx with context.Background() and a
// ctx-oblivious operator.
func SolveGMRESBatch(apply BatchMatVec, bs, xs [][]float64, opt SolverOptions) ([]SolverResult, error) {
	return krylov.GMRESBatchCtx(context.Background(), //lint:allow ctxfirst documented legacy ctx-free wrapper over SolveGMRESBatchCtx
		func(_ context.Context, vs [][]float64) ([][]float64, error) { return apply(vs) },
		bs, xs, opt)
}

// SolveBiCGSTABCtx solves A x = b by BiCGSTAB under ctx; cancellation
// semantics match SolveGMRESCtx.
func SolveBiCGSTABCtx(ctx context.Context, apply MatVecCtx, b, x []float64, opt SolverOptions) (SolverResult, error) {
	return krylov.BiCGSTABCtx(ctx, apply, b, x, opt)
}

// SolveBiCGSTAB solves A x = b by BiCGSTAB; it is SolveBiCGSTABCtx with
// context.Background() and a ctx-oblivious operator.
func SolveBiCGSTAB(apply MatVec, b, x []float64, opt SolverOptions) (SolverResult, error) {
	return krylov.BiCGSTABCtx(context.Background(), apply.lift(), b, x, opt) //lint:allow ctxfirst documented legacy ctx-free wrapper over SolveBiCGSTABCtx
}
