package linalg

import (
	"fmt"
	"math"
	"sort"
)

// SVDResult holds a thin singular value decomposition A = U * diag(S) * Vᵀ
// with U (m x k), S (k), V (n x k), k = min(m, n). Singular values are in
// non-increasing order.
type SVDResult struct {
	U *Dense
	S []float64
	V *Dense
	// Sweeps is the number of Jacobi sweeps run. Converged is false when
	// the last of them still found a pair to rotate: the sweep limit was
	// reached, or a non-finite entry turned the inner products into NaN.
	Sweeps    int
	Converged bool
}

// maxSweeps bounds the Jacobi iteration; the FMM's check matrices take
// about two dozen sweeps.
const maxSweeps = 60

// SVD computes the thin SVD of a by one-sided Jacobi rotations applied to
// the columns of a working copy. One-sided Jacobi converges for any
// matrix and computes small singular values to high relative accuracy,
// which matters because the FMM's check-surface operators are severely
// ill-conditioned by construction (the inversion is regularized by
// truncation in PseudoInverse).
func SVD(a *Dense) SVDResult { return svd(a, maxSweeps) }

// svd is SVD with the sweep limit as a parameter, for the tests.
func svd(a *Dense, limit int) SVDResult {
	m, n := a.Rows, a.Cols
	transposed := m < n
	w := a
	if transposed {
		// One-sided Jacobi wants tall matrices; factor the transpose and
		// swap U and V at the end.
		w = a.Transpose()
		m, n = n, m
	}
	// Column-major working storage: slice j is column j of the matrix
	// followed by column j of V (the identity to start with), so rotating
	// a pair of columns updates both in one unit-stride loop.
	cols := make([][]float64, n)
	for j := range cols {
		c := make([]float64, m+n)
		for i := 0; i < m; i++ {
			c[i] = w.Data[i*n+j]
		}
		c[m+j] = 1
		cols[j] = c
	}
	// Convergence when all off-diagonal column inner products are tiny
	// relative to the column norms.
	eps := 1e-15
	sweeps, converged := 0, false
	for sweeps < limit && !converged {
		sweeps++
		off := 0.0
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				cp, cq := cols[p], cols[q]
				alpha, beta, gamma := 0.0, 0.0, 0.0
				for i := 0; i < m; i++ {
					alpha += cp[i] * cp[i]
					beta += cq[i] * cq[i]
					gamma += cp[i] * cq[i]
				}
				if alpha == 0 || beta == 0 {
					continue
				}
				// A NaN ratio (non-finite input) poisons off for the rest
				// of the sweep: nothing compares greater than NaN.
				if r := math.Abs(gamma) / math.Sqrt(alpha*beta); r > off || math.IsNaN(r) {
					off = r
				}
				if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) {
					continue
				}
				// Jacobi rotation zeroing the (p,q) inner product.
				zeta := (beta - alpha) / (2 * gamma)
				t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
				c := 1 / math.Sqrt(1+t*t)
				s := c * t
				for i, vp := range cp {
					vq := cq[i]
					cp[i] = c*vp - s*vq
					cq[i] = s*vp + c*vq
				}
			}
		}
		if math.IsNaN(off) {
			break
		}
		converged = off < 1e-14
	}
	// Singular values are the column norms; U columns are normalized.
	type sv struct {
		s   float64
		idx int
	}
	svs := make([]sv, n)
	for j := 0; j < n; j++ {
		norm := 0.0
		for i := 0; i < m; i++ {
			norm += cols[j][i] * cols[j][i]
		}
		svs[j] = sv{math.Sqrt(norm), j}
	}
	sort.Slice(svs, func(i, j int) bool { return svs[i].s > svs[j].s })
	u := NewDense(m, n)
	vOut := NewDense(n, n)
	s := make([]float64, n)
	for jj, e := range svs {
		s[jj] = e.s
		inv := 0.0
		if e.s > 0 {
			inv = 1 / e.s
		}
		src := cols[e.idx]
		for i := 0; i < m; i++ {
			u.Data[i*n+jj] = src[i] * inv
		}
		for i, x := range src[m:] {
			vOut.Data[i*n+jj] = x
		}
	}
	res := SVDResult{U: u, S: s, V: vOut, Sweeps: sweeps, Converged: converged}
	if transposed {
		res.U, res.V = vOut, u
	}
	return res
}

// PseudoInverse returns the Moore–Penrose pseudo-inverse of a with
// singular values below relTol * s_max truncated. This is the
// regularized inversion of equations (2.1)–(2.5): the equivalent-density
// systems are consistent but exponentially ill-conditioned, and the
// truncation level controls the attainable FMM accuracy. A factorization
// that did not converge is a bug in the caller's matrix (a non-finite
// entry) or in SVD, and panics: a silently wrong operator would surface
// only as lost digits.
func PseudoInverse(a *Dense, relTol float64) *Dense {
	dec := SVD(a)
	if !dec.Converged {
		panic(fmt.Sprintf("linalg: PseudoInverse: SVD of a %dx%d matrix did not converge after %d of %d sweeps (fewer means a non-finite entry)",
			a.Rows, a.Cols, dec.Sweeps, maxSweeps))
	}
	k := len(dec.S)
	cut := 0.0
	if k > 0 {
		cut = dec.S[0] * relTol
	}
	// pinv = V * diag(1/s) * Uᵀ, truncated.
	vs := NewDense(dec.V.Rows, k)
	for j := 0; j < k; j++ {
		if dec.S[j] <= cut || dec.S[j] == 0 {
			continue // leave the column zero: truncated direction
		}
		inv := 1 / dec.S[j]
		for i := 0; i < dec.V.Rows; i++ {
			vs.Data[i*k+j] = dec.V.Data[i*dec.V.Cols+j] * inv
		}
	}
	return Mul(vs, dec.U.Transpose())
}
