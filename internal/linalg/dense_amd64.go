package linalg

// mulAddAVX2 runs mulAdd's vector body over the leading rows in whole
// blocks of eight and returns how many rows it did; mulAddRows takes the
// rest. The assembly sums the columns below cols&^3; the last cols%4
// columns and alpha are added in Go, in the order of the Go loop.
func (m *Dense) mulAddAVX2(dst, x []float64, alpha float64) int {
	cols := m.Cols
	c4 := cols &^ 3
	if c4 == 0 {
		return 0
	}
	var s [8]float64
	i := 0
	for ; i+8 <= m.Rows; i += 8 {
		dotRows8AVX2(m.Data[i*cols:(i+8)*cols], cols, x[:c4], &s)
		m.finishRows8(dst, x, alpha, i, &s)
	}
	return i
}

// mulAdd4AVX2 is mulAddAVX2 for four columns at once: dst and x hold
// four right-hand-side-major columns, and the vector body reads and
// transposes each eight-row tile of m once for all four.
func (m *Dense) mulAdd4AVX2(dst, x []float64, alpha float64) int {
	rows, cols := m.Rows, m.Cols
	if cols < 4 {
		return 0
	}
	x = x[:4*cols]
	var s [4][8]float64
	i := 0
	for ; i+8 <= rows; i += 8 {
		dotRows8x4AVX2(m.Data[i*cols:(i+8)*cols], cols, x, &s)
		for q := range s {
			m.finishRows8(dst[q*rows:(q+1)*rows], x[q*cols:(q+1)*cols], alpha, i, &s[q])
		}
	}
	return i
}

// finishRows8 adds the columns from cols&^3 on to the sums s of rows
// i..i+7, then alpha times each sum to dst, in the order of mulAddRows.
func (m *Dense) finishRows8(dst, x []float64, alpha float64, i int, s *[8]float64) {
	cols := m.Cols
	for k, sk := range s {
		row := m.Data[(i+k)*cols:][:cols]
		for j := cols &^ 3; j < cols; j++ {
			sk += row[j] * x[j]
		}
		dst[i+k] += alpha * sk
	}
}

// dotRows8AVX2 sets sum[k] = Σ_j a[k*cols+j]*x[j] for the eight rows of
// a and the columns j < len(x), a multiple of four, summing j in order.
//
//go:noescape
func dotRows8AVX2(a []float64, cols int, x []float64, sum *[8]float64)

// dotRows8x4AVX2 sets sum[q][k] = Σ_j a[k*cols+j]*x[q*cols+j] for the
// eight rows of a, the four columns q of x and j < cols&^3, summing j in
// order.
//
//go:noescape
func dotRows8x4AVX2(a []float64, cols int, x []float64, sum *[4][8]float64)

// axpyAVX2 runs axpy's vector body over the elements below len(dst)&^3
// and returns how many it did.
func axpyAVX2(dst, x []float64, a float64) int {
	n := len(dst) &^ 3
	addScaledAVX2(dst[:n], x[:n], a)
	return n
}

// addScaledAVX2 sets dst[j] += a*x[j] for j < len(dst), a multiple of
// four.
//
//go:noescape
func addScaledAVX2(dst, x []float64, a float64)
