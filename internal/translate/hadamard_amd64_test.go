package translate

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kernels"
)

// TestHadamardAddBodiesAgree holds the AVX2 body to the Go loop bit for
// bit: every length the tail handling can see, long grids, sub-slices at
// odd element offsets (AccumulateBatch slices rhs-major grids that way)
// and operands mixing ±0, ±Inf, NaN, subnormals and 1e±300 with ordinary
// values. An FMA in the vector body, or a re-association, fails it, and
// so does a store past the end of dst: the elements after it are
// sentinels that must keep their bits.
//
// Where both results are NaN only NaN-ness is compared: the payload of
// a NaN combined with another NaN is the first operand's on x86, and the
// Go compiler puts either operand of a commutative add or multiply
// first, as register allocation falls.
func TestHadamardAddBodiesAgree(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("CPU without AVX2: hadamardAdd runs only the Go body")
	}
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -4.9e-322, 2.2e-308, 1e300, -1e300, 1e-300, -1e-300,
	}
	rng := rand.New(rand.NewSource(27))
	part := func() float64 {
		if rng.Intn(4) == 0 {
			return special[rng.Intn(len(special))]
		}
		return rng.NormFloat64()
	}
	grid := func(n int) []complex128 {
		g := make([]complex128, n)
		for i := range g {
			g[i] = complex(part(), part())
		}
		return g
	}
	var lengths []int
	for n := 0; n <= 40; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 405, 1008, 1009)
	const tail = 3
	for _, n := range lengths {
		for _, off := range []int{0, 1, 3} {
			dst, tg, src := grid(off+n+tail), grid(off+n+2), grid(off+n+1)
			want := append([]complex128(nil), dst...)
			hadamardAddGeneric(want[off:off+n], tg[off:], src[off:])
			hadamardAddAVX2(dst[off:off+n], tg[off:off+n], src[off:off+n])
			for i := range dst {
				if !sameFloatBits(real(dst[i]), real(want[i])) || !sameFloatBits(imag(dst[i]), imag(want[i])) {
					t.Fatalf("n=%d off=%d: element %d = %v, Go loop %v",
						n, off, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestFFTM2LSameUnderBothBodies runs the Fourier-space M2L end to end —
// forward transforms, Hadamard sweeps over several V-list offsets and
// the extraction — once on the AVX2 body and once on the Go body, for a
// scalar and a 3×3 kernel with a batch of right-hand sides, and requires
// bitwise-equal check potentials.
func TestFFTM2LSameUnderBothBodies(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("CPU without AVX2: hadamardAdd runs only the Go body")
	}
	t.Cleanup(func() { cpu.AVX2 = true })
	rng := rand.New(rand.NewSource(27))
	for _, k := range []kernels.Kernel{kernels.Laplace{}, kernels.NewStokes(1)} {
		s, err := NewSet(k, 6, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		f := NewFFTM2L(s)
		const nq, level = 2, 2
		ne, nc := s.EquivCount(), s.CheckCount()
		gl := f.GridLen()
		phi := make([]float64, nq*ne)
		for i := range phi {
			phi[i] = rng.NormFloat64()
		}
		run := func(avx2 bool) []float64 {
			cpu.AVX2 = avx2
			src := make([]complex128, nq*k.SourceDim()*gl)
			f.ForwardDensityBatch(phi, nq, src)
			acc := make([]complex128, nq*k.TargetDim()*gl)
			for _, off := range [][3]int{{2, 0, -2}, {-2, 3, 1}, {3, 3, 3}} {
				f.AccumulateBatch(acc, src, nq, level, off)
			}
			check := make([]float64, nq*nc)
			for q := 0; q < nq; q++ {
				g := acc[q*k.TargetDim()*gl : (q+1)*k.TargetDim()*gl]
				f.ExtractGrids(g, level, check[q*nc:(q+1)*nc])
			}
			return check
		}
		vec, gen := run(true), run(false)
		for i := range vec {
			if math.Float64bits(vec[i]) != math.Float64bits(gen[i]) {
				t.Fatalf("%s: check potential %d = %v on the AVX2 body, %v on the Go body",
					k.Name(), i, vec[i], gen[i])
			}
		}
	}
}

// sameFloatBits is bitwise equality, with any two NaNs equal.
func sameFloatBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}
