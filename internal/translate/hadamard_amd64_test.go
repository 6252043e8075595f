package translate

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/fft"
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

// TestAccumulateBodiesAgree holds accumulateBlock's two bodies — the
// AVX2 block body and the Go block loop — to the per-component loop
// AccumulateBatch ran before them (one hadamardAddGeneric call per
// target component a, source component b and right-hand side q, in that
// nesting) bit for bit. It covers the scalar and the 3×3 block and the
// 2×2, 1×3 and 3×1 ones (every source width the vector body takes),
// batches of 1–16, the half-spectrum grid lengths of degrees 3–8 (odd,
// like 405 at degree 5, and even, like 1008 at degree 6) and a few
// short ones, operands mixing ±0, ±Inf, NaN, subnormals and 1e±300 with
// ordinary values, and tensors whose grids are separate or aliased the
// way buildTensor shares a mirrored component's grid. The accumulator
// grids lie back to back between sentinels, so a store past any grid
// shows: in the next grid as a wrong value, after the last one as a
// changed sentinel. NaNs are compared by NaN-ness (see
// TestHadamardAddBodiesAgree).
func TestAccumulateBodiesAgree(t *testing.T) {
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -4.9e-322, 2.2e-308, 1e300, -1e300, 1e-300, -1e-300,
	}
	rng := rand.New(rand.NewSource(45))
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
	gls := []int{1, 2, 3}
	for p := 3; p <= 8; p++ {
		m := fft.NextSmooth(2*p - 1)
		gls = append(gls, m*m*(m/2+1))
	}
	type body func(acc, src []complex128, tg [][]complex128, gl, nq, td, sd int)
	bodies := map[string]body{
		"Go block loop": func(acc, src []complex128, tg [][]complex128, gl, nq, td, sd int) {
			accumulateBlockGeneric(acc, src, tg, gl, 0, nq, td, sd)
		},
	}
	if cpu.AVX2 {
		// accumulateBlock on AVX2: the vector body, and the Go loop for an
		// odd last frequency.
		bodies["AVX2 block body"] = accumulateBlock
	} else {
		t.Log("CPU without AVX2: only the Go block loop is checked")
	}
	const guard = 3
	for _, shape := range [][2]int{{1, 1}, {3, 3}, {2, 2}, {1, 3}, {3, 1}} {
		td, sd := shape[0], shape[1]
		for _, nq := range []int{1, 2, 3, 4, 5, 8, 16} {
			for _, gl := range gls {
				for _, aliased := range []bool{false, true} {
					if aliased && td*sd == 1 {
						continue
					}
					tens := make([][]complex128, td*sd)
					for c := range tens {
						tens[c] = grid(gl)
					}
					if aliased && td == 3 && sd == 3 {
						tens[3], tens[6], tens[7] = tens[1], tens[2], tens[5]
					} else if aliased {
						for c := range tens {
							tens[c] = tens[0]
						}
					}
					src := grid(nq * sd * gl)
					acc := grid(guard + nq*td*gl + guard)
					want := append([]complex128(nil), acc...)
					for a := 0; a < td; a++ {
						for b := 0; b < sd; b++ {
							for q := 0; q < nq; q++ {
								o := guard + (q*td+a)*gl
								hadamardAddGeneric(want[o:o+gl], tens[a*sd+b], src[(q*sd+b)*gl:])
							}
						}
					}
					for name, run := range bodies {
						got := append([]complex128(nil), acc...)
						run(got[guard:guard+nq*td*gl], src, tens, gl, nq, td, sd)
						for i := range got {
							if !sameFloatBits(real(got[i]), real(want[i])) || !sameFloatBits(imag(got[i]), imag(want[i])) {
								t.Fatalf("%s, %dx%d nq=%d gl=%d aliased=%v: element %d = %v, per-component loop %v",
									name, td, sd, nq, gl, aliased, i-guard, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestFFTM2LSameUnderBothBodies runs the Fourier-space M2L end to end —
// forward transforms, Hadamard sweeps over several V-list offsets and
// the extraction — once on the AVX2 bodies and once on the Go bodies,
// for a scalar kernel and the two 3×3 ones (Stokes and Kelvin, whose
// tensors share their mirrored grids) in batches of 1, 2, 4 and 5
// right-hand sides, and requires bitwise-equal check potentials.
func TestFFTM2LSameUnderBothBodies(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("CPU without AVX2: hadamardAdd runs only the Go body")
	}
	t.Cleanup(func() { cpu.AVX2 = true })
	rng := rand.New(rand.NewSource(27))
	for _, k := range []kernels.Kernel{kernels.Laplace{}, kernels.NewStokes(1), kernels.NewKelvin(1, 0.3)} {
		s, err := NewSet(k, 6, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		f := NewFFTM2L(s)
		const level = 2
		sd, td := k.SourceDim(), k.TargetDim()
		ne, nc := s.EquivCount(), s.CheckCount()
		gl := f.GridLen()
		for _, nq := range []int{1, 2, 4, 5} {
			phi := make([]float64, nq*ne)
			for i := range phi {
				phi[i] = rng.NormFloat64()
			}
			run := func(avx2 bool) []float64 {
				cpu.AVX2 = avx2
				src := make([]complex128, nq*sd*gl)
				f.ForwardDensityBatch(phi, nq, src)
				acc := make([]complex128, nq*td*gl)
				for _, off := range [][3]int{{2, 0, -2}, {-2, 3, 1}, {3, 3, 3}} {
					f.AccumulateBatch(acc, src, nq, level, off)
				}
				check := make([]float64, nq*nc)
				for q := 0; q < nq; q++ {
					f.ExtractGrids(acc[q*td*gl:(q+1)*td*gl], level, check[q*nc:(q+1)*nc])
				}
				return check
			}
			vec, gen := run(true), run(false)
			for i := range vec {
				if math.Float64bits(vec[i]) != math.Float64bits(gen[i]) {
					t.Fatalf("%s nq=%d: check potential %d = %v on the AVX2 bodies, %v on the Go bodies",
						k.Name(), nq, i, vec[i], gen[i])
				}
			}
		}
		s.Close()
	}
}

// sameFloatBits is bitwise equality, with any two NaNs equal.
func sameFloatBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}
