// Package linalg provides the dense linear algebra the kernel-independent
// FMM needs: row-major matrices, matrix-vector and matrix-matrix
// products, a one-sided Jacobi SVD, and truncated pseudo-inverses used to
// invert the check-potential -> equivalent-density integral equations
// (arrows (2) in Figures 2.1 and 2.2 of the paper).
//
// Only the standard library is used; the SVD is a classical one-sided
// Jacobi iteration, which is slow asymptotically but very accurate and
// entirely adequate for the small (hundreds of rows) surface operators
// the FMM factors once per level. Its sweep visits the column pairs by
// antidiagonals (p+q constant), whose pairs touch disjoint columns, so
// on a CPU with AVX2 eight of them are formed and rotated at a time.
// Every column still meets its partners in the row-cyclic order and a
// rotation reads only its own two columns, so the factors are the
// row-cyclic ones bit for bit (see SVD).
package linalg

import (
	"fmt"

	"repro/internal/cpu"
)

// Dense is a row-major matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewDense allocates a zero Rows x Cols matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Scale multiplies every entry by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Transpose returns a new matrix mᵀ.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// MulAddCols computes dst_c += alpha * (m * x_c) for the k columns
// c = 0..k-1 of x and dst, stored right-hand-side-major: x_c is
// x[c*m.Cols:(c+1)*m.Cols] and dst_c is dst[c*m.Rows:(c+1)*m.Rows]. The
// FMM applies its unit-scale translation operators with it, rescaled
// analytically for homogeneous kernels, to every right-hand side of a box
// in one call. Each column comes out bit for bit as mulAdd leaves it
// alone: on a CPU with AVX2 the columns go four at a time through a
// vector body that reads and transposes each tile of m once for all four
// (dense_amd64.s) and computes every column as mulAdd's vector body does;
// the last k%4 columns, and every column elsewhere, go through mulAdd.
func (m *Dense) MulAddCols(dst, x []float64, k int, alpha float64) {
	m.checkShape("MulAddCols", dst, x, k)
	rows, cols := m.Rows, m.Cols
	c := 0
	if cpu.AVX2 {
		for ; c+4 <= k; c += 4 {
			d, xs := dst[c*rows:(c+4)*rows], x[c*cols:(c+4)*cols]
			i := m.mulAdd4AVX2(d, xs, alpha)
			for q := 0; q < 4; q++ {
				m.mulAddRows(d[q*rows:(q+1)*rows], xs[q*cols:(q+1)*cols], alpha, i)
			}
		}
	}
	for ; c < k; c++ {
		m.mulAdd(dst[c*rows:(c+1)*rows], x[c*cols:(c+1)*cols], alpha)
	}
}

func (m *Dense) checkShape(op string, dst, x []float64, k int) {
	if k < 0 || len(x) != k*m.Cols || len(dst) != k*m.Rows {
		panic(fmt.Sprintf("linalg: %s shape mismatch (%dx%d)*%d->%d, k=%d", op, m.Rows, m.Cols, len(x), len(dst), k))
	}
}

// mulAdd is the one-column matrix-vector kernel: dst += alpha * (m * x).
// Every row sums j = 0..Cols-1 left to right from +0, one multiply and
// one add per element, and then adds alpha times the sum to dst, so the
// result is bitwise that of the plain one-row loop (alpha = 1 multiplies
// exactly, and a sum started at +0 is never -0, so MatVec's zero-then-add
// equals assignment).
//
// On a CPU with AVX2 (cpu.AVX2) the vector body (dense_amd64.s) first
// takes the rows in blocks of eight, one YMM lane per row, over the
// columns in steps of four; mulAddRows then finishes the last Rows%8
// rows, and elsewhere it is the only body. The vector lanes do what a
// row does there — from +0, one multiply and one add per column (no
// FMA), j in order, the last Cols%4 columns and alpha in Go — so the two
// bodies agree bit for bit (TestMatVecBitwiseEqualsReference) and the
// choice, made only from the CPU, never changes a result.
func (m *Dense) mulAdd(dst, x []float64, alpha float64) {
	i := 0
	if cpu.AVX2 {
		i = m.mulAddAVX2(dst, x, alpha)
	}
	m.mulAddRows(dst, x, alpha, i)
}

// mulAddRows is mulAdd's Go body over the rows from i on. It walks four
// rows per pass, so each x[j] is loaded once for four independent
// accumulators instead of once per row behind a single dependent add
// chain; every row still sums in the plain loop's order.
func (m *Dense) mulAddRows(dst, x []float64, alpha float64, i int) {
	cols := m.Cols
	for ; i+4 <= m.Rows; i += 4 {
		// Reslicing every row to len(x) lets the compiler drop the
		// bounds checks of the inner loop.
		r0 := m.Data[i*cols:][:len(x)]
		r1 := m.Data[(i+1)*cols:][:len(x)]
		r2 := m.Data[(i+2)*cols:][:len(x)]
		r3 := m.Data[(i+3)*cols:][:len(x)]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += r0[j] * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		d := dst[i : i+4]
		d[0] += alpha * s0
		d[1] += alpha * s1
		d[2] += alpha * s2
		d[3] += alpha * s3
	}
	for ; i < m.Rows; i++ {
		row := m.Data[i*cols:][:len(x)]
		s := 0.0
		for j, xj := range x {
			s += row[j] * xj
		}
		dst[i] += alpha * s
	}
}

// Mul returns a*b. Each element of a row of the product sums its terms
// k = 0..a.Cols-1 in order from +0, one multiply and one add per term,
// skipping the terms whose element of a is zero.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: Mul shape mismatch (%dx%d)*(%dx%d)", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			axpy(crow, b.Row(k), av)
		}
	}
	return c
}

// axpy adds a times x to dst element by element, dst[j] += a*x[j]; on a
// CPU with AVX2 the vector body (dense_amd64.s) takes the elements below
// len(dst)&^3 four at a time, a broadcast and one multiply and one add
// per element as here, so the two bodies agree bit for bit
// (TestMulBodiesAgree).
func axpy(dst, x []float64, a float64) {
	j := 0
	if cpu.AVX2 {
		j = axpyAVX2(dst, x, a)
	}
	x = x[:len(dst)]
	for ; j < len(dst); j++ {
		dst[j] += a * x[j]
	}
}

// Sub returns a - b.
func Sub(a, b *Dense) *Dense {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: Sub shape mismatch")
	}
	c := NewDense(a.Rows, a.Cols)
	for i, v := range a.Data {
		c.Data[i] = v - b.Data[i]
	}
	return c
}
