package translate

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/kernels"
)

// BenchmarkAccumulateBatch times AccumulateBatch per V-list pair on warm
// tensors: the scalar Laplace kernel and the 3×3 Stokes kernel, one and
// four right-hand sides, at degrees 5 (odd grid length 405) and 6 (even,
// 1008). Each iteration applies the next of 16 offsets' tensors, so the
// tensor stream is that of a sweep rather than one cache-hot grid; ns/rhs
// is the time per pair and right-hand side.
func BenchmarkAccumulateBatch(b *testing.B) {
	var offs [][3]int
	for x := -3; x <= 3; x += 2 {
		for y := -3; y <= 3; y += 2 {
			offs = append(offs, [3]int{x, y, 3})
		}
	}
	for _, k := range []kernels.Kernel{kernels.Laplace{}, kernels.NewStokes(1)} {
		for _, p := range []int{5, 6} {
			s, err := NewSet(k, p, 0.5, 0)
			if err != nil {
				b.Fatal(err)
			}
			f := NewFFTM2L(s)
			const level = 2
			sd, td := k.SourceDim(), k.TargetDim()
			gl := f.GridLen()
			for _, nq := range []int{1, 4} {
				rng := rand.New(rand.NewSource(5))
				src := make([]complex128, nq*sd*gl)
				for i := range src {
					src[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				acc := make([]complex128, nq*td*gl)
				for _, off := range offs {
					f.AccumulateBatch(acc, src, nq, level, off)
				}
				clear(acc)
				b.Run(fmt.Sprintf("%s/p%d/nq%d", k.Name(), p, nq), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						f.AccumulateBatch(acc, src, nq, level, offs[i%len(offs)])
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nq), "ns/rhs")
				})
			}
			s.Close()
		}
	}
}
