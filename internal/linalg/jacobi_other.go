//go:build !amd64

package linalg

// pairs8AVX2 and rotateAVX2 are never called off amd64 (cpu.AVX2 is
// false); they do nothing, so the Go loops do every pair and every row.
func (w *jacobiWork) pairs8AVX2(t, a, last int, off *float64) int { return a }

func rotateAVX2(cp, cq []float64, c, s float64) int { return 0 }
