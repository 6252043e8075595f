package kifmm

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"
)

// TestRootCtxAPI: the public ctx-first entry points propagate
// cancellation with the typed taxonomy, end to end through evaluator
// construction, evaluation and the GMRES solver.
func TestRootCtxAPI(t *testing.T) {
	pts := FlattenPatches(UniformPatches(21, 1500))
	den := RandomDensities(22, len(pts)/3, 1)
	opt := Options{Kernel: Laplace(), Degree: 4, MaxPoints: 40, Workers: 1}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	// Construction.
	if _, err := NewEvaluatorCtx(cancelled, pts, pts, opt); !errors.Is(err, ErrCanceled) {
		t.Fatalf("NewEvaluatorCtx: err = %v, want ErrCanceled", err)
	}
	ev, err := NewEvaluatorCtx(context.Background(), pts, pts, opt)
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()

	// Evaluation.
	if _, err := ev.EvaluateCtx(cancelled, den); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("EvaluateCtx: err = %v, want ErrCanceled and context.Canceled", err)
	}
	if _, err := ev.EvaluateBatchCtx(cancelled, [][]float64{den}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("EvaluateBatchCtx: err = %v, want ErrCanceled", err)
	}
	if _, err := ev.EvaluateCtx(context.Background(), den); err != nil {
		t.Fatal(err)
	}

	// Typed input errors.
	if _, err := ev.EvaluateCtx(context.Background(), den[:5]); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("short densities: err = %v, want ErrInvalidInput", err)
	}
	if code, ok := ErrorCodeOf(nil); ok || code != "" {
		t.Errorf("ErrorCodeOf(nil) = %q, %v; want empty", code, ok)
	}
	if code, ok := ErrorCodeOf(ErrPlanTooLarge); !ok || code != CodePlanTooLarge {
		t.Errorf("ErrorCodeOf(ErrPlanTooLarge) = %q, %v", code, ok)
	}
	if _, err := KernelByName("warp"); !errors.Is(err, ErrUnknownKernel) {
		t.Errorf("KernelByName: err = %v, want ErrUnknownKernel", err)
	}
}

// TestSolveGMRESCtxCancelAbortsOperator: cancelling mid-solve stops the
// iteration with the typed error, with the FMM evaluator itself as the
// ctx-aware operator (the paper's Krylov-over-FMM shape).
func TestSolveGMRESCtxCancelAbortsOperator(t *testing.T) {
	pts := FlattenPatches(UniformPatches(23, 800))
	b := RandomDensities(24, len(pts)/3, 1)
	ev, err := NewEvaluatorCtx(context.Background(), pts, pts, Options{Kernel: Laplace(), Degree: 4, MaxPoints: 40})
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()

	ctx, cancel := context.WithCancel(context.Background())
	applies := 0
	mv := func(ctx context.Context, dst, x []float64) error {
		applies++
		if applies == 2 {
			cancel()
		}
		pot, err := ev.EvaluateCtx(ctx, x)
		if err != nil {
			return err
		}
		// Shift the diagonal so the system is well conditioned and the
		// solve would otherwise run many iterations.
		for i := range dst {
			dst[i] = pot[i] + 5*x[i]
		}
		return nil
	}
	res, err := SolveGMRESCtx(ctx, mv, b, make([]float64, len(b)), SolverOptions{Tol: 1e-12, MaxIters: 100})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled and context.Canceled", err)
	}
	if res.Converged {
		t.Error("cancelled solve must not converge")
	}
	if applies > 3 {
		t.Errorf("operator ran %d times after cancellation at 2", applies)
	}

	// The same operator under a live context converges.
	r1, err := SolveGMRESCtx(context.Background(), mv, b, make([]float64, len(b)), SolverOptions{Tol: 1e-8})
	if err != nil || !r1.Converged {
		t.Fatalf("uncancelled solve: %+v, %v", r1, err)
	}
}

// TestSolveGMRESCtxDeadline: deadline errors keep their own code
// through the solver.
func TestSolveGMRESCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	mv := func(context.Context, []float64, []float64) error { return nil }
	_, err := SolveGMRESCtx(ctx, mv, []float64{1, 2}, []float64{0, 0}, SolverOptions{})
	if !errors.Is(err, ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded and context.DeadlineExceeded", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Error("deadline must not match ErrCanceled")
	}
}

// TestCtxOverheadSanity: an evaluation under a cancellable context (a
// real Done channel, polled at every dispatch, level barrier and chunk
// claim) must not be measurably slower than one under Background, whose
// Done is nil. A coarse bound: it guards against an accidental
// per-index ctx check, not scheduling noise.
func TestCtxOverheadSanity(t *testing.T) {
	if testing.Short() {
		t.Skip("timing sanity check skipped in -short mode")
	}
	pts := FlattenPatches(UniformPatches(25, 2000))
	den := RandomDensities(26, len(pts)/3, 1)
	ev, err := NewEvaluatorCtx(context.Background(), pts, pts, Options{Kernel: Laplace(), Degree: 4, MaxPoints: 40, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	if _, err := ev.EvaluateCtx(context.Background(), den); err != nil { // warm caches
		t.Fatal(err)
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The minimum over the rounds, not their sum: under a loaded machine
	// (go test ./... runs packages side by side) one stolen time slice
	// lands on one side of a sum, while the fastest round of each side
	// is the work itself.
	const rounds = 5
	timed := func(ctx context.Context) time.Duration {
		s := time.Now()
		if _, err := ev.EvaluateCtx(ctx, den); err != nil {
			t.Fatal(err)
		}
		return time.Since(s)
	}
	background, cancellable := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < rounds; i++ {
		background = min(background, timed(context.Background()))
		cancellable = min(cancellable, timed(live))
	}
	if cancellable > background*3/2 {
		t.Errorf("cancellable-ctx evaluation %v vs Background %v — ctx checks are too hot", cancellable, background)
	}
}
