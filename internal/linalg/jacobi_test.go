package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/kernels"
	"repro/internal/surface"
)

// rowCyclicSweep is the sweep SVD ran before it went by antidiagonals,
// kept as the reference its bits must equal: the pairs (p, q), p < q, row
// by row, each through one scalar loop, with the rotation written out
// here rather than shared with the package's bodies.
func rowCyclicSweep(w *jacobiWork) float64 {
	n, m := len(w.cols), w.m
	off := 0.0
	for p := 0; p < n-1; p++ {
		for q := p + 1; q < n; q++ {
			cp, cq := w.cols[p], w.cols[q]
			alpha, beta, gamma := 0.0, 0.0, 0.0
			for i := 0; i < m; i++ {
				alpha += cp[i] * cp[i]
				beta += cq[i] * cq[i]
				gamma += cp[i] * cq[i]
			}
			if alpha == 0 || beta == 0 {
				continue
			}
			if r := math.Abs(gamma) / math.Sqrt(alpha*beta); r > off || math.IsNaN(r) {
				off = r
			}
			if math.Abs(gamma) <= 1e-15*math.Sqrt(alpha*beta) {
				continue
			}
			zeta := (beta - alpha) / (2 * gamma)
			t := math.Copysign(1, zeta) / (math.Abs(zeta) + math.Sqrt(1+zeta*zeta))
			c := 1 / math.Sqrt(1+t*t)
			s := c * t
			for i, vp := range cp {
				vq := cq[i]
				cp[i] = c*vp - s*vq
				cq[i] = s*vp + c*vq
			}
		}
	}
	return off
}

// checkMatrix is the UC←UE matrix translate factors for a box of unit
// half-width: kernel k from the equivalent surface to the check surface
// of degree p.
func checkMatrix(k kernels.Kernel, p int) *Dense {
	surf, err := surface.New(p)
	if err != nil {
		panic(err)
	}
	trg := surf.Points([3]float64{}, surface.CheckRadius(1), nil)
	src := surf.Points([3]float64{}, surface.EquivRadius(p, 1), nil)
	a := NewDense(surf.N*k.TargetDim(), surf.N*k.SourceDim())
	kernels.Matrix(k, trg, src, a.Data)
	return a
}

// jacobiCases are the matrices the Jacobi bodies are held to: the check
// matrices of the four built-in kernels at degrees 4 to 6 (n = 56 to
// 456), and small random ones that reach every path of the sweep. Under
// the race detector the check matrices stop at n = 152: the SVD runs on
// one goroutine, so the larger ones would only take minutes there.
func jacobiCases() []struct {
	name string
	a    *Dense
} {
	type jc = struct {
		name string
		a    *Dense
	}
	var cases []jc
	for _, k := range []kernels.Kernel{kernels.Laplace{}, kernels.NewModLaplace(1), kernels.NewStokes(1), kernels.NewKelvin(1, 0.3)} {
		for _, p := range []int{4, 5, 6} {
			if a := checkMatrix(k, p); !raceEnabled || a.Cols <= 152 {
				cases = append(cases, jc{fmt.Sprintf("%s p=%d", k.Name(), p), a})
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	// Fewer than eight pairs on every antidiagonal: all Go.
	for _, s := range [][2]int{{1, 1}, {3, 2}, {9, 5}, {7, 7}, {20, 15}} {
		cases = append(cases, jc{fmt.Sprintf("random %dx%d", s[0], s[1]), randomDense(rng, s[0], s[1])})
	}
	// Every row tail of the vector dots, and whole steps only.
	for _, m := range []int{40, 41, 42, 43, 45} {
		cases = append(cases, jc{fmt.Sprintf("random %dx37", m), randomDense(rng, m, 37)})
	}
	cases = append(cases, jc{"wide 30x45", randomDense(rng, 30, 45)})
	dup := randomDense(rng, 50, 36)
	for i := 0; i < dup.Rows; i++ {
		dup.Set(i, 5, 0)
		dup.Set(i, 17, dup.At(i, 3))
		dup.Set(i, 30, dup.At(i, 3))
	}
	cases = append(cases, jc{"zero and duplicate columns", dup})
	cases = append(cases, jc{"rank 5 of 60x40", Mul(randomDense(rng, 60, 5), randomDense(rng, 5, 40))})
	for _, s := range []float64{1e150, 1e-150} {
		cases = append(cases, jc{fmt.Sprintf("scaled by %g", s), randomDense(rng, 50, 40).Scale(s)})
	}
	nan := randomDense(rng, 50, 40)
	nan.Set(17, 23, math.NaN())
	cases = append(cases, jc{"one NaN", nan})
	return cases
}

// TestJacobiBodiesAgree holds SVD to the row-cyclic sweep bit for bit —
// U, S and V element by element (any two NaNs equal), Sweeps and
// Converged — once on the Go loops and, on a CPU with AVX2, once on the
// vector bodies. The antidiagonal order must change no rotation's
// operands, and the vector dots and rotations must round as the Go loops
// do: a pair taken out of order, an FMA or a row summed out of order
// fails it.
func TestJacobiBodiesAgree(t *testing.T) {
	detected := cpu.AVX2
	t.Cleanup(func() { cpu.AVX2 = detected })
	bodies := []bool{false}
	if detected {
		bodies = append(bodies, true)
	} else {
		t.Log("no AVX2: only the Go body is checked")
	}
	for _, c := range jacobiCases() {
		cpu.AVX2 = false
		want := svd(c.a, maxSweeps, rowCyclicSweep)
		for _, avx2 := range bodies {
			cpu.AVX2 = avx2
			got := SVD(c.a)
			where := fmt.Sprintf("%s (%dx%d, AVX2 %v)", c.name, c.a.Rows, c.a.Cols, avx2)
			if got.Sweeps != want.Sweeps || got.Converged != want.Converged {
				t.Errorf("%s: %d sweeps, converged %v; row-cyclic: %d, %v", where, got.Sweeps, got.Converged, want.Sweeps, want.Converged)
			}
			for _, part := range []struct {
				name      string
				got, want []float64
			}{{"U", got.U.Data, want.U.Data}, {"S", got.S, want.S}, {"V", got.V.Data, want.V.Data}} {
				if len(part.got) != len(part.want) {
					t.Fatalf("%s: %s has %d elements, want %d", where, part.name, len(part.got), len(part.want))
				}
				for i := range part.want {
					if !sameFloatBits(part.got[i], part.want[i]) {
						t.Errorf("%s: %s element %d is %x, row-cyclic %x", where, part.name, i, part.got[i], part.want[i])
						break
					}
				}
			}
		}
	}
}

// BenchmarkSVDCheckMatrix times the factorization a plan's first
// evaluation pays per box size, at the two sizes the repository
// benchmark builds: Laplace at degree 6 (n = 152) and Stokes at degree 5
// (n = 294).
func BenchmarkSVDCheckMatrix(b *testing.B) {
	for _, c := range []struct {
		k kernels.Kernel
		p int
	}{{kernels.Laplace{}, 6}, {kernels.NewStokes(1), 5}} {
		a := checkMatrix(c.k, c.p)
		b.Run(fmt.Sprintf("n=%d", a.Cols), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				SVD(a)
			}
		})
	}
}
