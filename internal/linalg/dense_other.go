//go:build !amd64

package linalg

// mulAddAVX2 is never called off amd64 (cpu.AVX2 is false); it does no
// rows, so mulAdd's Go loops do them all.
func (m *Dense) mulAddAVX2(dst, x []float64, alpha float64) int { return 0 }
