package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cpu"
)

// refMatVecAddScaled is the plain one-row, one-accumulator loop every
// body of the row-blocked kernel must reproduce bit for bit.
func refMatVecAddScaled(m *Dense, dst, x []float64, alpha float64) {
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for j := 0; j < m.Cols; j++ {
			s += m.Data[i*m.Cols+j] * x[j]
		}
		dst[i] += alpha * s
	}
}

// TestMatVecBitwiseEqualsReference holds mulAdd to the plain loop bit for
// bit through all three entry points, once on the Go loops and, on a CPU
// with AVX2, once on the vector body: every row and column count from 0
// to 40 (whole eight-row blocks and every row tail, whole four-column
// steps and every column tail) and the FMM's 152- and 294-point surfaces,
// half of the cases with ±0, ±Inf, NaN, subnormals and 1e±300 mixed into
// the matrix, x and dst. An FMA or a re-association in the vector body
// fails it, and so does a store past the end of dst: the three elements
// after it are sentinels that must keep their bits.
func TestMatVecBitwiseEqualsReference(t *testing.T) {
	detected := cpu.AVX2
	t.Cleanup(func() { cpu.AVX2 = detected })
	bodies := []bool{false}
	if detected {
		bodies = append(bodies, true)
	}
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -4.9e-322, 2.2e-308, 1e300, -1e300, 1e-300, -1e-300,
	}
	rng := rand.New(rand.NewSource(7))
	fill := func(v []float64, withSpecial bool) []float64 {
		for i := range v {
			v[i] = rng.NormFloat64()
			if withSpecial && rng.Intn(8) == 0 {
				v[i] = special[rng.Intn(len(special))]
			}
		}
		return v
	}
	var sizes []int
	for n := 0; n <= 40; n++ {
		sizes = append(sizes, n)
	}
	sizes = append(sizes, 152, 294)
	const r, tail = 0.37, 3
	for _, rows := range sizes {
		for _, cols := range sizes {
			withSpecial := rng.Intn(2) == 0
			m := &Dense{Rows: rows, Cols: cols, Data: fill(make([]float64, rows*cols), withSpecial)}
			x := fill(make([]float64, cols), withSpecial)
			init := fill(make([]float64, rows+tail), withSpecial)
			for _, avx2 := range bodies {
				cpu.AVX2 = avx2
				check := func(name string, got, want []float64) {
					t.Helper()
					for i := range want {
						if !sameFloatBits(got[i], want[i]) {
							t.Fatalf("%s %dx%d (AVX2 %v, special %v) element %d: got %x want %x",
								name, rows, cols, avx2, withSpecial, i, got[i], want[i])
						}
					}
				}

				// MatVec overwrites whatever dst held.
				got := append([]float64(nil), init...)
				want := append([]float64(nil), init...)
				clear(want[:rows])
				m.MatVec(got[:rows], x)
				refMatVecAddScaled(m, want[:rows], x, 1)
				for i := 0; i < rows; i++ {
					// The reference's 0 + 1*s must itself be the plain sum.
					s := 0.0
					for j := 0; j < cols; j++ {
						s += m.At(i, j) * x[j]
					}
					if !sameFloatBits(want[i], s) {
						t.Fatalf("reference broken at %dx%d row %d", rows, cols, i)
					}
				}
				check("MatVec", got, want)

				got = append([]float64(nil), init...)
				want = append([]float64(nil), init...)
				m.MatVecAdd(got[:rows], x)
				refMatVecAddScaled(m, want[:rows], x, 1)
				check("MatVecAdd", got, want)

				for _, alpha := range []float64{1, -0.5, 1 / r} {
					got = append([]float64(nil), init...)
					want = append([]float64(nil), init...)
					m.MatVecAddScaled(got[:rows], x, alpha)
					refMatVecAddScaled(m, want[:rows], x, alpha)
					check(fmt.Sprintf("MatVecAddScaled(alpha=%v)", alpha), got, want)
				}
			}
		}
	}
}

// TestMatVecAllocatesNothing: the vector body keeps its row sums on the
// stack.
func TestMatVecAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomDense(rng, 37, 29)
	x, dst := make([]float64, 29), make([]float64, 37)
	if a := testing.AllocsPerRun(10, func() { m.MatVecAddScaled(dst, x, 0.5) }); a != 0 {
		t.Errorf("MatVecAddScaled allocates %v times per call", a)
	}
}

// sameFloatBits is bitwise equality, with any two NaNs equal: the payload
// of a NaN combined with another NaN depends on operand order, which the
// Go compiler picks for commutative operations as register allocation
// falls.
func sameFloatBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestMatVecPanicMessagesNameTheEntryPoint pins the panic text callers
// see in a stack trace: one shape check serves all three entry points but
// still names the one that was called.
func TestMatVecPanicMessagesNameTheEntryPoint(t *testing.T) {
	a := NewDense(3, 4)
	for name, f := range map[string]func(){
		"MatVec":          func() { a.MatVec(make([]float64, 3), make([]float64, 3)) },
		"MatVecAdd":       func() { a.MatVecAdd(make([]float64, 2), make([]float64, 4)) },
		"MatVecAddScaled": func() { a.MatVecAddScaled(make([]float64, 3), make([]float64, 5), 1) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.HasPrefix(msg, "linalg: "+name+" shape mismatch (3x4)") {
					t.Errorf("%s: panic %q", name, msg)
				}
			}()
			f()
		}()
	}
}

// BenchmarkMatVecAddScaled times one square operator application at the
// FMM's two usual surface sizes (degree 6: 152 points, degree 8: 294).
func BenchmarkMatVecAddScaled(b *testing.B) {
	for _, n := range []int{152, 294} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			m := randomDense(rng, n, n)
			x := make([]float64, n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			dst := make([]float64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MatVecAddScaled(dst, x, 0.5)
			}
		})
	}
}
