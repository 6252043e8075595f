//go:build !amd64

package kernels

// laplaceP2PAVX2 is never called off amd64 (cpu.AVX2 is false); it does
// no targets, so the Go loop does them all.
func laplaceP2PAVX2(trg, src, den, pot []float64) int { return 0 }

// stokesP2PAVX2 is never called off amd64 (cpu.AVX2 is false); it does
// no targets, so the Go loop does them all.
func stokesP2PAVX2(c float64, trg, src []float64, dens, pots [][]float64) int { return 0 }
