package linalg

// mulAddAVX2 runs mulAdd's vector body over the leading rows in whole
// blocks of eight and returns how many rows it did; mulAdd's Go loops
// take the rest. The assembly sums the columns below cols&^3; the last
// cols%4 columns and alpha are added here in Go, in the order of the Go
// loop.
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
		for k := range s {
			row := m.Data[(i+k)*cols:][:len(x)]
			for j := c4; j < cols; j++ {
				s[k] += row[j] * x[j]
			}
			dst[i+k] += alpha * s[k]
		}
	}
	return i
}

// dotRows8AVX2 sets sum[k] = Σ_j a[k*cols+j]*x[j] for the eight rows of
// a and the columns j < len(x), a multiple of four, summing j in order.
//
//go:noescape
func dotRows8AVX2(a []float64, cols int, x []float64, sum *[8]float64)
