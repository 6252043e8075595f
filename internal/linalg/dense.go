// Package linalg provides the dense linear algebra the kernel-independent
// FMM needs: row-major matrices, matrix-vector and matrix-matrix
// products, a one-sided Jacobi SVD, and truncated pseudo-inverses used to
// invert the check-potential -> equivalent-density integral equations
// (arrows (2) in Figures 2.1 and 2.2 of the paper).
//
// Only the standard library is used; the SVD is a classical one-sided
// Jacobi iteration, which is slow asymptotically but very accurate and
// entirely adequate for the small (hundreds of rows) surface operators
// the FMM factors once per level.
package linalg

import (
	"fmt"
	"math"
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

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

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

// MatVec computes dst = m * x. dst must have length m.Rows and x length
// m.Cols; dst and x must not alias.
func (m *Dense) MatVec(dst, x []float64) {
	m.checkShape("MatVec", dst, x)
	for i := range dst {
		dst[i] = 0
	}
	m.mulAdd(dst, x, 1)
}

// MatVecAdd computes dst += m * x.
func (m *Dense) MatVecAdd(dst, x []float64) {
	m.checkShape("MatVecAdd", dst, x)
	m.mulAdd(dst, x, 1)
}

// MatVecAddScaled computes dst += alpha * (m * x). The FMM uses it to
// apply unit-scale translation operators rescaled analytically for
// homogeneous kernels.
func (m *Dense) MatVecAddScaled(dst, x []float64, alpha float64) {
	m.checkShape("MatVecAddScaled", dst, x)
	m.mulAdd(dst, x, alpha)
}

func (m *Dense) checkShape(op string, dst, x []float64) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: %s shape mismatch (%dx%d)*%d->%d", op, m.Rows, m.Cols, len(x), len(dst)))
	}
}

// mulAdd is the one matrix-vector kernel: dst += alpha * (m * x). It
// walks four rows per pass, so each x[j] is loaded once for four
// independent accumulators instead of once per row behind a single
// dependent add chain. Every row still sums j = 0..Cols-1 left to right
// from zero, so the result is bitwise that of the plain one-row loop
// (alpha = 1 multiplies exactly, and a sum started at +0 is never -0, so
// MatVec's zero-then-add equals assignment).
func (m *Dense) mulAdd(dst, x []float64, alpha float64) {
	cols := m.Cols
	i := 0
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

// Mul returns a*b.
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
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += av * bv
			}
		}
	}
	return c
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
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

// Eye returns the n x n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}
