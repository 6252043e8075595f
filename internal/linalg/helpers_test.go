package linalg

import "math"

// The helpers below serve only this package's tests: the FMM reads
// matrices through their rows and applies them with MulAddCols.

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Scale multiplies every entry by s in place and returns m.
func (m *Dense) Scale(s float64) *Dense {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
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

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MatVec computes dst = m * x. dst must have length m.Rows and x length
// m.Cols; dst and x must not alias.
func (m *Dense) MatVec(dst, x []float64) {
	m.checkShape("MatVec", dst, x, 1)
	for i := range dst {
		dst[i] = 0
	}
	m.mulAdd(dst, x, 1)
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Dense) FrobeniusNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Eye returns the n x n identity matrix.
func Eye(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}
