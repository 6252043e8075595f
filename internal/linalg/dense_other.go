//go:build !amd64

package linalg

// mulAddAVX2 and mulAdd4AVX2 are never called off amd64 (cpu.AVX2 is
// false); they do no rows, so mulAddRows does them all.
func (m *Dense) mulAddAVX2(dst, x []float64, alpha float64) int { return 0 }

func (m *Dense) mulAdd4AVX2(dst, x []float64, alpha float64) int { return 0 }
