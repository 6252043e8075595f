package krylov

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/linalg"
)

// denseBatchApply wraps a dense matrix as a BatchMatVecCtx, counting calls.
func denseBatchApply(a *linalg.Dense, calls *atomic.Int64) BatchMatVecCtx {
	return func(_ context.Context, xs [][]float64) ([][]float64, error) {
		if calls != nil {
			calls.Add(1)
		}
		ys := make([][]float64, len(xs))
		for i, x := range xs {
			ys[i] = make([]float64, a.Rows)
			a.MatVec(ys[i], x)
		}
		return ys, nil
	}
}

// TestGMRESBatchMatchesSequential: each system of a batch must produce
// exactly the solution sequential GMRES produces — lockstep batching
// only reorders when operator applications happen, not their inputs.
func TestGMRESBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	const n, k = 40, 5
	a := spdMatrix(rng, n)
	bs := make([][]float64, k)
	for i := range bs {
		bs[i] = make([]float64, n)
		for j := range bs[i] {
			bs[i][j] = rng.NormFloat64()
		}
	}
	opt := Options{Tol: 1e-10}

	want := make([][]float64, k)
	wantRes := make([]Result, k)
	for i := range bs {
		want[i] = make([]float64, n)
		res, err := GMRESCtx(bg, denseApply(a), bs[i], want[i], opt)
		if err != nil {
			t.Fatal(err)
		}
		wantRes[i] = res
	}

	xs := make([][]float64, k)
	for i := range xs {
		xs[i] = make([]float64, n)
	}
	results, err := GMRESBatchCtx(bg, denseBatchApply(a, nil), bs, xs, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range results {
		if !results[i].Converged {
			t.Fatalf("system %d did not converge: %+v", i, results[i])
		}
		if results[i].Iterations != wantRes[i].Iterations {
			t.Errorf("system %d: %d iterations, sequential used %d", i, results[i].Iterations, wantRes[i].Iterations)
		}
		for j := range xs[i] {
			if xs[i][j] != want[i][j] {
				t.Fatalf("system %d solution differs from sequential GMRES at %d: %g vs %g",
					i, j, xs[i][j], want[i][j])
			}
		}
	}
}

// TestGMRESBatchAmortizesApplies: k systems iterating in lockstep must
// need about as many batched applications as ONE system needs
// iterations, not k times as many.
func TestGMRESBatchAmortizesApplies(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	const n, k = 40, 6
	a := spdMatrix(rng, n)
	bs := make([][]float64, k)
	xs := make([][]float64, k)
	for i := range bs {
		bs[i] = make([]float64, n)
		for j := range bs[i] {
			bs[i][j] = rng.NormFloat64()
		}
		xs[i] = make([]float64, n)
	}
	var calls atomic.Int64
	results, err := GMRESBatchCtx(bg, denseBatchApply(a, &calls), bs, xs, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	maxIters := 0
	for _, r := range results {
		if r.Iterations > maxIters {
			maxIters = r.Iterations
		}
	}
	// Systems dropping out mid-cycle can add a few extra flushes, but
	// the call count must track the slowest system, not the sum.
	if c := int(calls.Load()); c > maxIters+k {
		t.Errorf("%d batched applies for max %d per-system iterations (k=%d): lockstep not amortizing", c, maxIters, k)
	}
}

// TestGMRESBatchHeterogeneousConvergence: systems that converge at very
// different rates must all finish, early finishers dropping out.
func TestGMRESBatchHeterogeneousConvergence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 30
	a := spdMatrix(rng, n)
	// System 0: b = A*e so it converges almost immediately. System 1:
	// random b. System 2: zero b (instant, never applies the operator).
	e := make([]float64, n)
	e[0] = 1
	b0 := make([]float64, n)
	a.MatVec(b0, e)
	b1 := make([]float64, n)
	for i := range b1 {
		b1[i] = rng.NormFloat64()
	}
	bs := [][]float64{b0, b1, make([]float64, n)}
	xs := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
	results, err := GMRESBatchCtx(bg, denseBatchApply(a, nil), bs, xs, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !r.Converged {
			t.Errorf("system %d did not converge: %+v", i, r)
		}
	}
}

// TestGMRESBatchOperatorError: an operator failure must surface as an
// error instead of hanging the lockstep.
func TestGMRESBatchOperatorError(t *testing.T) {
	boom := errors.New("operator failed")
	apply := func(context.Context, [][]float64) ([][]float64, error) { return nil, boom }
	bs := [][]float64{{1, 2, 3}, {4, 5, 6}}
	xs := [][]float64{make([]float64, 3), make([]float64, 3)}
	if _, err := GMRESBatchCtx(bg, apply, bs, xs, Options{}); !errors.Is(err, boom) {
		t.Errorf("got err %v, want %v", err, boom)
	}
}

// TestGMRESBatchValidation covers shape errors and the empty batch.
func TestGMRESBatchValidation(t *testing.T) {
	apply := func(_ context.Context, xs [][]float64) ([][]float64, error) { return xs, nil }
	if _, err := GMRESBatchCtx(bg, apply, [][]float64{{1}}, [][]float64{}, Options{}); err == nil {
		t.Error("bs/xs count mismatch must error")
	}
	if _, err := GMRESBatchCtx(bg, apply, [][]float64{{1, 2}, {1}}, [][]float64{{0, 0}, {0}}, Options{}); err == nil {
		t.Error("ragged systems must error")
	}
	results, err := GMRESBatchCtx(bg, apply, nil, nil, Options{})
	if err != nil || len(results) != 0 {
		t.Errorf("empty batch: got %v, %v", results, err)
	}
}
