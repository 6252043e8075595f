//go:build !amd64

package linalg

// mulAddAVX2, mulAdd4AVX2 and axpyAVX2 are never called off amd64
// (cpu.AVX2 is false); they do nothing, so the Go loops do it all.
func (m *Dense) mulAddAVX2(dst, x []float64, alpha float64) int { return 0 }

func (m *Dense) mulAdd4AVX2(dst, x []float64, alpha float64) int { return 0 }

func axpyAVX2(dst, x []float64, a float64) int { return 0 }
