package linalg

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

func randomDense(rng *rand.Rand, m, n int) *Dense {
	a := NewDense(m, n)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	return a
}

func TestMatVecAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomDense(rng, 7, 5)
	x := make([]float64, 5)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	dst := make([]float64, 7)
	a.MatVec(dst, x)
	for i := 0; i < 7; i++ {
		s := 0.0
		for j := 0; j < 5; j++ {
			s += a.At(i, j) * x[j]
		}
		if math.Abs(dst[i]-s) > 1e-13 {
			t.Fatalf("MatVec[%d] = %v want %v", i, dst[i], s)
		}
	}
}

func TestMulAssociativityAndIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomDense(rng, 4, 6)
	b := randomDense(rng, 6, 3)
	c := randomDense(rng, 3, 5)
	left := Mul(Mul(a, b), c)
	right := Mul(a, Mul(b, c))
	if d := Sub(left, right).FrobeniusNorm(); d > 1e-12 {
		t.Errorf("associativity violated: %v", d)
	}
	if d := Sub(Mul(a, Eye(6)), a).FrobeniusNorm(); d > 1e-14 {
		t.Errorf("A*I != A: %v", d)
	}
	if d := Sub(Mul(Eye(4), a), a).FrobeniusNorm(); d > 1e-14 {
		t.Errorf("I*A != A: %v", d)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomDense(rng, 5, 8)
	if d := Sub(a.Transpose().Transpose(), a).FrobeniusNorm(); d != 0 {
		t.Errorf("(Aᵀ)ᵀ != A: %v", d)
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	a := NewDense(3, 4)
	for _, f := range []func(){
		func() { a.MatVec(make([]float64, 3), make([]float64, 3)) },
		func() { Mul(a, NewDense(3, 3)) },
		func() { Sub(a, NewDense(4, 3)) },
		func() { NewDense(-1, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected shape panic")
				}
			}()
			f()
		}()
	}
}

func checkSVD(t *testing.T, a *Dense, tol float64) {
	t.Helper()
	dec := SVD(a)
	k := len(dec.S)
	if k != min(a.Rows, a.Cols) {
		t.Fatalf("thin SVD rank: got %d want %d", k, min(a.Rows, a.Cols))
	}
	for i := 1; i < k; i++ {
		if dec.S[i] > dec.S[i-1]+1e-14 {
			t.Fatalf("singular values not sorted: s[%d]=%v > s[%d]=%v", i, dec.S[i], i-1, dec.S[i-1])
		}
		if dec.S[i] < 0 {
			t.Fatalf("negative singular value %v", dec.S[i])
		}
	}
	// Reconstruction A = U S Vᵀ.
	us := dec.U.Clone()
	for i := 0; i < us.Rows; i++ {
		for j := 0; j < k; j++ {
			us.Data[i*k+j] *= dec.S[j]
		}
	}
	rec := Mul(us, dec.V.Transpose())
	scale := a.FrobeniusNorm()
	if scale == 0 {
		scale = 1
	}
	if d := Sub(rec, a).FrobeniusNorm() / scale; d > tol {
		t.Fatalf("SVD reconstruction error %v > %v", d, tol)
	}
	// Orthonormal columns of U and V (on the non-null part).
	checkOrthonormalCols(t, dec.U, dec.S, tol)
	checkOrthonormalCols(t, dec.V, dec.S, tol)
}

func checkOrthonormalCols(t *testing.T, u *Dense, s []float64, tol float64) {
	t.Helper()
	for p := 0; p < u.Cols; p++ {
		if s[p] == 0 {
			continue
		}
		for q := p; q < u.Cols; q++ {
			if s[q] == 0 {
				continue
			}
			dot := 0.0
			for i := 0; i < u.Rows; i++ {
				dot += u.At(i, p) * u.At(i, q)
			}
			want := 0.0
			if p == q {
				want = 1
			}
			if math.Abs(dot-want) > tol {
				t.Fatalf("columns %d,%d not orthonormal: %v", p, q, dot)
			}
		}
	}
}

func TestSVDRandomMatrices(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, shape := range [][2]int{{5, 5}, {8, 3}, {3, 8}, {20, 12}, {1, 6}, {6, 1}} {
		checkSVD(t, randomDense(rng, shape[0], shape[1]), 1e-10)
	}
}

func TestSVDRankDeficient(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	// A = b * cᵀ has rank 1.
	b := randomDense(rng, 9, 1)
	c := randomDense(rng, 7, 1)
	a := Mul(b, c.Transpose())
	checkSVD(t, a, 1e-10)
	dec := SVD(a)
	for i := 1; i < len(dec.S); i++ {
		if dec.S[i] > 1e-12*dec.S[0] {
			t.Errorf("rank-1 matrix has spurious singular value s[%d]=%v", i, dec.S[i])
		}
	}
}

func TestSVDZeroMatrix(t *testing.T) {
	a := NewDense(4, 3)
	dec := SVD(a)
	for _, s := range dec.S {
		if s != 0 {
			t.Errorf("zero matrix must have zero singular values, got %v", s)
		}
	}
}

func TestSVDKnownValues(t *testing.T) {
	// diag(3, 2) embedded in a rotation-free matrix.
	a := NewDense(2, 2)
	a.Set(0, 0, 3)
	a.Set(1, 1, 2)
	dec := SVD(a)
	if math.Abs(dec.S[0]-3) > 1e-12 || math.Abs(dec.S[1]-2) > 1e-12 {
		t.Errorf("singular values of diag(3,2): %v", dec.S)
	}
}

// TestSVDReportsSweepsAndConvergence: a factorization that stops at the
// sweep limit, or that met a non-finite entry, must say so.
func TestSVDReportsSweepsAndConvergence(t *testing.T) {
	a := randomDense(rand.New(rand.NewSource(8)), 20, 12)
	if dec := SVD(a); !dec.Converged || dec.Sweeps < 2 || dec.Sweeps >= maxSweeps {
		t.Errorf("random 20x12: converged=%v after %d sweeps", dec.Converged, dec.Sweeps)
	}
	if dec := svd(a, 2, sweep); dec.Converged || dec.Sweeps != 2 {
		t.Errorf("limit of 2 sweeps: converged=%v after %d sweeps, want false after 2", dec.Converged, dec.Sweeps)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		b := a.Clone()
		b.Set(7, 3, bad)
		if dec := SVD(b); dec.Converged || dec.Sweeps >= maxSweeps {
			t.Errorf("entry %v: converged=%v after %d sweeps, want an early unconverged stop", bad, dec.Converged, dec.Sweeps)
		}
	}
}

// TestPseudoInversePanicsOnUnconvergedSVD: an operator built from a
// factorization that did not converge must not be returned.
func TestPseudoInversePanicsOnUnconvergedSVD(t *testing.T) {
	a := randomDense(rand.New(rand.NewSource(9)), 6, 6)
	a.Set(2, 4, math.NaN())
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "linalg: PseudoInverse") {
			t.Errorf("PseudoInverse of a matrix with a NaN: recovered %q, want a linalg: panic", msg)
		}
	}()
	PseudoInverse(a, 1e-10)
}

func TestPseudoInverseMoorePenrose(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, shape := range [][2]int{{6, 6}, {9, 4}, {4, 9}} {
		a := randomDense(rng, shape[0], shape[1])
		p := PseudoInverse(a, 1e-13)
		if p.Rows != a.Cols || p.Cols != a.Rows {
			t.Fatalf("pinv shape %dx%d for A %dx%d", p.Rows, p.Cols, a.Rows, a.Cols)
		}
		// A A⁺ A = A and A⁺ A A⁺ = A⁺.
		if d := Sub(Mul(Mul(a, p), a), a).FrobeniusNorm() / a.FrobeniusNorm(); d > 1e-9 {
			t.Errorf("A A+ A != A: %v", d)
		}
		if d := Sub(Mul(Mul(p, a), p), p).FrobeniusNorm() / p.FrobeniusNorm(); d > 1e-9 {
			t.Errorf("A+ A A+ != A+: %v", d)
		}
	}
}

func TestPseudoInverseRegularizesIllConditioned(t *testing.T) {
	// Nearly rank-1: truncation must keep the pinv norm bounded.
	a := NewDense(3, 3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			a.Set(i, j, 1)
		}
	}
	a.Set(2, 2, 1+1e-14)
	p := PseudoInverse(a, 1e-8)
	if n := p.FrobeniusNorm(); n > 10 {
		t.Errorf("truncated pinv should be tame, norm=%v", n)
	}
}

func TestScaleAndClone(t *testing.T) {
	a := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 2)
	c := a.Clone()
	a.Scale(3)
	if a.At(0, 0) != 3 || a.At(1, 1) != 6 {
		t.Error("Scale failed")
	}
	if c.At(0, 0) != 1 || c.At(1, 1) != 2 {
		t.Error("Clone must be independent")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
