package linalg

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/cpu"
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

// eps is the relative size below which a column pair's inner product
// counts as zero and the pair is not rotated.
const eps = 1e-15

// SVD computes the thin SVD of a by one-sided Jacobi rotations applied to
// the columns of a working copy. One-sided Jacobi converges for any
// matrix and computes small singular values to high relative accuracy,
// which matters because the FMM's check-surface operators are severely
// ill-conditioned by construction (the inversion is regularized by
// truncation in PseudoInverse).
//
// A sweep visits every column pair (p, q), p < q, once, by antidiagonals:
// t = p+q runs from 1 to 2n−3, and the pairs (a, t−a) of one antidiagonal
// touch disjoint columns, so they can be rotated in any order or all at
// once. Each column still meets its partners in the row-cyclic order
// (0,q), (1,q), …, (q−1,q), (q,q+1), …, (q,n−1), and a rotation reads
// only its own two columns, so every rotation sees the bits it would see
// in the row-cyclic sweep and U, S, V, Sweeps and Converged are the
// row-cyclic ones bit for bit (TestJacobiBodiesAgree). On a CPU with AVX2
// an antidiagonal's pairs go eight at a time through a vector body
// (jacobi_amd64.s) that forms the eight pairs' inner products in the
// lanes of one register, row by row in order as the Go loop does, and
// rotates each pair along its column four rows at a time.
func SVD(a *Dense) SVDResult { return svd(a, maxSweeps, sweep) }

// svd is SVD with the sweep limit and the sweep itself as parameters, for
// the tests.
func svd(a *Dense, limit int, sweep func(w *jacobiWork) float64) SVDResult {
	m, n := a.Rows, a.Cols
	transposed := m < n
	w := a
	if transposed {
		// One-sided Jacobi wants tall matrices; factor the transpose and
		// swap U and V at the end.
		w = a.Transpose()
		m, n = n, m
	}
	work := newJacobiWork(w)
	// Convergence when all off-diagonal column inner products are tiny
	// relative to the column norms.
	sweeps, converged := 0, false
	for sweeps < limit && !converged {
		sweeps++
		off := sweep(work)
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
			norm += work.cols[j][i] * work.cols[j][i]
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
		src := work.cols[e.idx]
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

// jacobiWork is the column-major working storage of the sweeps: column j
// of the matrix followed by column j of V (the identity to start with),
// so rotating a pair of columns updates both in one unit-stride loop.
// The columns lie one after another in slab, stride m+n apart, and
// cols[j] is the view of column j.
type jacobiWork struct {
	slab []float64
	cols [][]float64
	m    int // rows of the matrix; the rest of a column is V's
}

func newJacobiWork(a *Dense) *jacobiWork {
	m, n := a.Rows, a.Cols
	stride := m + n
	w := &jacobiWork{slab: make([]float64, n*stride), cols: make([][]float64, n), m: m}
	for j := range w.cols {
		c := w.slab[j*stride : (j+1)*stride : (j+1)*stride]
		for i := 0; i < m; i++ {
			c[i] = a.Data[i*n+j]
		}
		c[m+j] = 1
		w.cols[j] = c
	}
	return w
}

// sweep runs one Jacobi sweep over w by antidiagonals (see SVD) and
// returns the largest relative inner product it met, NaN if any was NaN.
func sweep(w *jacobiWork) float64 {
	n := len(w.cols)
	off := 0.0
	for t := 1; t <= 2*n-3; t++ {
		a, last := max(0, t-n+1), (t-1)/2
		if cpu.AVX2 {
			a = w.pairs8AVX2(t, a, last, &off)
		}
		for ; a <= last; a++ {
			w.pair(a, t-a, &off)
		}
	}
	return off
}

// pair rotates columns p and q of w, the Go body of one pair.
func (w *jacobiWork) pair(p, q int, off *float64) {
	cp, cq := w.cols[p], w.cols[q]
	alpha, beta, gamma := 0.0, 0.0, 0.0
	for i, vp := range cp[:w.m] {
		vq := cq[i]
		alpha += vp * vp
		beta += vq * vq
		gamma += vp * vq
	}
	if c, s, ok := rotation(alpha, beta, gamma, off); ok {
		rotate(cp, cq, c, s)
	}
}

// rotation returns the Jacobi rotation (c, s) that zeroes the inner
// product gamma of a column pair with squared norms alpha and beta, after
// raising off to the pair's relative inner product. ok is false when the
// pair is left alone: a zero column, or columns orthogonal to within eps.
func rotation(alpha, beta, gamma float64, off *float64) (c, s float64, ok bool) {
	if alpha == 0 || beta == 0 {
		return 0, 0, false
	}
	// A NaN ratio (non-finite input) poisons off for the rest of the
	// sweep: nothing compares greater than NaN.
	if r := math.Abs(gamma) / math.Sqrt(alpha*beta); r > *off || math.IsNaN(r) {
		*off = r
	}
	if math.Abs(gamma) <= eps*math.Sqrt(alpha*beta) {
		return 0, 0, false
	}
	zeta := (beta - alpha) / (2 * gamma)
	t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
	c = 1 / math.Sqrt(1+t*t)
	return c, c * t, true
}

// rotate applies the rotation (c, s) to the column pair cp, cq; on a CPU
// with AVX2 the vector body takes whole groups of four rows.
func rotate(cp, cq []float64, c, s float64) {
	i := 0
	if cpu.AVX2 {
		i = rotateAVX2(cp, cq, c, s)
	}
	cq = cq[:len(cp)]
	for ; i < len(cp); i++ {
		vp, vq := cp[i], cq[i]
		cp[i] = c*vp - s*vq
		cq[i] = s*vp + c*vq
	}
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
