package kifmm

import (
	"context"
	"math"
	"testing"
)

// testSystem returns a small symmetric positive-definite system
// (diagonally dominant tridiagonal), its right-hand side for a known
// solution, and an apply closure.
func testSystem(n int) (apply MatVecCtx, b, want []float64) {
	apply = func(_ context.Context, dst, x []float64) error {
		for i := range dst {
			v := 4 * x[i]
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
	want = make([]float64, n)
	for i := range want {
		want[i] = math.Sin(float64(i + 1))
	}
	b = make([]float64, n)
	apply(context.Background(), b, want)
	return apply, b, want
}

func solutionErr(got, want []float64) float64 {
	num, den := 0.0, 0.0
	for i := range got {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	return math.Sqrt(num / den)
}

func TestSolveGMRES(t *testing.T) {
	const n = 40
	apply, b, want := testSystem(n)
	x := make([]float64, n)
	res, err := SolveGMRESCtx(context.Background(), apply, b, x, SolverOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("GMRES did not converge: %+v", res)
	}
	if res.Residual > 1e-10 {
		t.Errorf("residual = %g, want <= 1e-10", res.Residual)
	}
	if e := solutionErr(x, want); e > 1e-8 {
		t.Errorf("solution error = %g", e)
	}
	if res.Iterations <= 0 || res.Iterations > 200 {
		t.Errorf("iterations = %d", res.Iterations)
	}
}

func TestSolveBiCGSTAB(t *testing.T) {
	const n = 40
	apply, b, want := testSystem(n)
	x := make([]float64, n)
	res, err := SolveBiCGSTABCtx(context.Background(), apply, b, x, SolverOptions{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("BiCGSTAB did not converge: %+v", res)
	}
	if e := solutionErr(x, want); e > 1e-8 {
		t.Errorf("solution error = %g", e)
	}
}

// TestSolveGMRESBatchWithFMMOperator: many right-hand sides against one
// FMM operator, the workload SolveGMRESBatchCtx exists for. Every system
// must converge to the accuracy its sequential counterpart reaches.
func TestSolveGMRESBatchWithFMMOperator(t *testing.T) {
	pts := FlattenPatches(UniformPatches(13, 120))
	n := len(pts) / 3
	ev, err := NewEvaluatorCtx(context.Background(), pts, pts, Options{Kernel: Laplace(), Degree: 4, MaxPoints: 30})
	if err != nil {
		t.Fatal(err)
	}
	const shift = 1.0
	apply := func(ctx context.Context, xs [][]float64) ([][]float64, error) {
		pots, err := ev.EvaluateBatchCtx(ctx, xs)
		if err != nil {
			return nil, err
		}
		for i := range pots {
			for j := range pots[i] {
				pots[i][j] += shift * xs[i][j]
			}
		}
		return pots, nil
	}
	const k = 3
	wants := make([][]float64, k)
	bs := make([][]float64, k)
	xs := make([][]float64, k)
	for s := 0; s < k; s++ {
		wants[s] = make([]float64, n)
		for i := range wants[s] {
			wants[s][i] = 1 + float64((i+s)%7)/7
		}
		xs[s] = make([]float64, n)
	}
	rhs, err := apply(context.Background(), wants)
	if err != nil {
		t.Fatal(err)
	}
	copy(bs, rhs)
	results, err := SolveGMRESBatchCtx(context.Background(), apply, bs, xs, SolverOptions{Tol: 1e-8, MaxIters: 300})
	if err != nil {
		t.Fatal(err)
	}
	for s, res := range results {
		if !res.Converged {
			t.Fatalf("system %d did not converge: %+v", s, res)
		}
		if e := solutionErr(xs[s], wants[s]); e > 1e-5 {
			t.Errorf("system %d solution error = %g", s, e)
		}
	}
}

// TestSolverWithFMMOperator closes the loop the paper describes: a
// Krylov solve whose operator is an FMM evaluation (first-kind system
// G x = b on a small cloud, regularized by a diagonal shift).
func TestSolverWithFMMOperator(t *testing.T) {
	pts := FlattenPatches(UniformPatches(11, 120))
	n := len(pts) / 3
	ev, err := NewEvaluatorCtx(context.Background(), pts, pts, Options{Kernel: Laplace(), Degree: 4, MaxPoints: 30})
	if err != nil {
		t.Fatal(err)
	}
	const shift = 1.0
	apply := func(ctx context.Context, dst, x []float64) error {
		pot, err := ev.EvaluateCtx(ctx, x)
		for i := range pot {
			dst[i] = shift*x[i] + pot[i]
		}
		return err
	}
	want := make([]float64, n)
	for i := range want {
		want[i] = 1 + float64(i%7)/7
	}
	b := make([]float64, n)
	if err := apply(context.Background(), b, want); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, n)
	res, err := SolveGMRESCtx(context.Background(), apply, b, x, SolverOptions{Tol: 1e-8, MaxIters: 300})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("FMM-operator GMRES did not converge: %+v", res)
	}
	if e := solutionErr(x, want); e > 1e-5 {
		t.Errorf("solution error = %g", e)
	}
}
