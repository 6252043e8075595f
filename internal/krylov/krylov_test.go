package krylov

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// bg is the context of every solve that exercises no cancellation.
var bg = context.Background()

// denseApply wraps a dense matrix as a MatVecCtx.
func denseApply(a *linalg.Dense) MatVecCtx {
	return func(_ context.Context, dst, x []float64) error {
		a.MatVec(dst, x)
		return nil
	}
}

// spdMatrix returns a random symmetric positive definite matrix
// A = Bᵀ B + n·I (well conditioned).
func spdMatrix(rng *rand.Rand, n int) *linalg.Dense {
	b := linalg.NewDense(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := linalg.Mul(b.Transpose(), b)
	for i := 0; i < n; i++ {
		a.Data[i*n+i] += float64(n)
	}
	return a
}

// diagDominant returns a random nonsymmetric diagonally dominant matrix.
func diagDominant(rng *rand.Rand, n int) *linalg.Dense {
	a := linalg.NewDense(n, n)
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			if i != j {
				a.Data[i*n+j] = rng.NormFloat64()
				row += math.Abs(a.Data[i*n+j])
			}
		}
		a.Data[i*n+i] = row + 1
	}
	return a
}

func residual(a *linalg.Dense, x, b []float64) float64 {
	r := make([]float64, len(b))
	a.MatVec(r, x)
	num, den := 0.0, 0.0
	for i := range r {
		num += (b[i] - r[i]) * (b[i] - r[i])
		den += b[i] * b[i]
	}
	return math.Sqrt(num / den)
}

func TestGMRESSolvesDenseSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{5, 20, 60} {
		for _, mk := range []func(*rand.Rand, int) *linalg.Dense{spdMatrix, diagDominant} {
			a := mk(rng, n)
			b := make([]float64, n)
			for i := range b {
				b[i] = rng.NormFloat64()
			}
			x := make([]float64, n)
			res, err := GMRESCtx(bg, denseApply(a), b, x, Options{Tol: 1e-10})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Converged {
				t.Fatalf("n=%d: GMRES did not converge: %+v", n, res)
			}
			if r := residual(a, x, b); r > 1e-8 {
				t.Errorf("n=%d: residual %v", n, r)
			}
		}
	}
}

func TestGMRESRestartedConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := 80
	a := spdMatrix(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	// Restart far below n forces multiple outer cycles.
	res, err := GMRESCtx(bg, denseApply(a), b, x, Options{Tol: 1e-9, Restart: 7, MaxIters: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("restarted GMRES failed: %+v", res)
	}
	if r := residual(a, x, b); r > 1e-7 {
		t.Errorf("residual %v", r)
	}
}

func TestGMRESUsesInitialGuess(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 30
	a := spdMatrix(rng, n)
	want := make([]float64, n)
	for i := range want {
		want[i] = rng.NormFloat64()
	}
	b := make([]float64, n)
	a.MatVec(b, want)
	// Exact initial guess: must converge with a single residual check.
	x := append([]float64(nil), want...)
	res, err := GMRESCtx(bg, denseApply(a), b, x, Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations > 1 {
		t.Errorf("exact guess needed %d mat-vecs", res.Iterations)
	}
}

func TestBiCGSTABSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{10, 50} {
		a := diagDominant(rng, n)
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x := make([]float64, n)
		res, err := BiCGSTABCtx(bg, denseApply(a), b, x, Options{Tol: 1e-10, MaxIters: 500})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatalf("n=%d: BiCGSTAB did not converge: %+v", n, res)
		}
		if r := residual(a, x, b); r > 1e-7 {
			t.Errorf("n=%d: residual %v", n, r)
		}
	}
}

func TestZeroRightHandSide(t *testing.T) {
	a := spdMatrix(rand.New(rand.NewSource(5)), 10)
	x := make([]float64, 10)
	x[3] = 7
	res, err := GMRESCtx(bg, denseApply(a), make([]float64, 10), x, Options{})
	if err != nil || !res.Converged {
		t.Fatal("zero rhs must converge instantly")
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero rhs must give zero solution")
		}
	}
	x[2] = 1
	res, err = BiCGSTABCtx(bg, denseApply(a), make([]float64, 10), x, Options{})
	if err != nil || !res.Converged {
		t.Fatal("BiCGSTAB zero rhs must converge")
	}
}

func TestLengthMismatch(t *testing.T) {
	if _, err := GMRESCtx(bg, func(context.Context, []float64, []float64) error { return nil }, make([]float64, 3), make([]float64, 4), Options{}); err == nil {
		t.Error("GMRES must reject length mismatch")
	}
	if _, err := BiCGSTABCtx(bg, func(context.Context, []float64, []float64) error { return nil }, make([]float64, 3), make([]float64, 4), Options{}); err == nil {
		t.Error("BiCGSTAB must reject length mismatch")
	}
}

func TestMaxItersRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 40
	a := spdMatrix(rng, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	res, _ := GMRESCtx(bg, denseApply(a), b, x, Options{Tol: 1e-30, MaxIters: 5})
	if res.Iterations > 6 {
		t.Errorf("GMRES overran MaxIters: %d", res.Iterations)
	}
	if res.Converged {
		t.Error("cannot converge to 1e-30 in 5 iterations")
	}
}
