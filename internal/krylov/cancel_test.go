package krylov

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/errs"
)

// slowSystem is a small well-conditioned dense system whose GMRES solve
// needs many iterations, giving a cancellation room to land.
func slowSystem(n int) (apply MatVecCtx, b []float64, applies *atomic.Int64) {
	applies = &atomic.Int64{}
	apply = func(_ context.Context, dst, x []float64) error {
		applies.Add(1)
		// Tridiagonal SPD operator: 2 on the diagonal, -1 off it.
		for i := range dst {
			v := 2 * x[i]
			if i > 0 {
				v -= x[i-1]
			}
			if i < n-1 {
				v -= x[i+1]
			}
			dst[i] = v
		}
		return nil
	}
	b = make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	return apply, b, applies
}

// TestGMRESCtxCancelStopsIterating: a cancellation between operator
// applications ends the solve with the typed error and the partial
// iteration count.
func TestGMRESCtxCancelStopsIterating(t *testing.T) {
	const n = 400
	apply, b, applies := slowSystem(n)
	ctx, cancel := context.WithCancel(context.Background())
	const stopAfter = 3
	guard := func(c context.Context, dst, x []float64) error {
		if applies.Load() == stopAfter {
			cancel()
		}
		return apply(c, dst, x)
	}
	res, err := GMRESCtx(ctx, guard, b, make([]float64, n), Options{Tol: 1e-12, MaxIters: 200, Restart: 50})
	if !errors.Is(err, errs.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled and context.Canceled", err)
	}
	if got := applies.Load(); got != stopAfter+1 {
		t.Errorf("operator applied %d times after cancel at %d — the per-iteration check must stop the solve", got, stopAfter)
	}
	if res.Converged {
		t.Error("cancelled solve must not report convergence")
	}
}

// TestGMRESCtxDeadline: an expired deadline produces the deadline code.
func TestGMRESCtxDeadline(t *testing.T) {
	const n = 50
	apply, b, _ := slowSystem(n)
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	<-ctx.Done()
	_, err := GMRESCtx(ctx, apply, b, make([]float64, n), Options{})
	if !errors.Is(err, errs.ErrDeadlineExceeded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrDeadlineExceeded and context.DeadlineExceeded", err)
	}
}

// TestGMRESCtxOperatorErrorAborts: an error from the operator (an FMM
// evaluation failing mid-solve) surfaces unchanged.
func TestGMRESCtxOperatorErrorAborts(t *testing.T) {
	boom := errors.New("operator exploded")
	apply := func(context.Context, []float64, []float64) error { return boom }
	_, err := GMRESCtx(context.Background(), apply, []float64{1, 2}, []float64{0, 0}, Options{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the operator error", err)
	}
}

// TestBiCGSTABCtxCancel mirrors the GMRES cancellation contract.
func TestBiCGSTABCtxCancel(t *testing.T) {
	const n = 400
	apply, b, applies := slowSystem(n)
	ctx, cancel := context.WithCancel(context.Background())
	guard := func(c context.Context, dst, x []float64) error {
		if applies.Load() == 2 {
			cancel()
		}
		return apply(c, dst, x)
	}
	_, err := BiCGSTABCtx(ctx, guard, b, make([]float64, n), Options{Tol: 1e-13})
	if !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestGMRESBatchCtxCancelAbortsAllSystems: one shared cancellation
// aborts every in-flight system of a lockstep batch without deadlock.
func TestGMRESBatchCtxCancelAbortsAllSystems(t *testing.T) {
	const n, k = 400, 4
	_, b, _ := slowSystem(n)
	ctx, cancel := context.WithCancel(context.Background())
	var rounds atomic.Int64
	apply := func(c context.Context, xs [][]float64) ([][]float64, error) {
		if rounds.Add(1) == 2 {
			cancel()
		}
		if err := c.Err(); err != nil {
			return nil, errs.FromContext(err)
		}
		single, _, _ := slowSystem(n)
		ys := make([][]float64, len(xs))
		for i, x := range xs {
			ys[i] = make([]float64, n)
			if err := single(c, ys[i], x); err != nil {
				return nil, err
			}
		}
		return ys, nil
	}
	bs := make([][]float64, k)
	xs := make([][]float64, k)
	for i := range bs {
		bs[i] = append([]float64(nil), b...)
		xs[i] = make([]float64, n)
	}
	_, err := GMRESBatchCtx(ctx, apply, bs, xs, Options{Tol: 1e-12, MaxIters: 100})
	if !errors.Is(err, errs.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}
