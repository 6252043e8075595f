package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cpu"
)

// refMulAdd is the plain one-row, one-accumulator loop every body of
// the row-blocked kernel must reproduce bit for bit, for one column.
func refMulAdd(m *Dense, dst, x []float64, alpha float64) {
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for j := 0; j < m.Cols; j++ {
			s += m.Data[i*m.Cols+j] * x[j]
		}
		dst[i] += alpha * s
	}
}

// TestMatVecBitwiseEqualsReference holds MatVec and MulAddCols to the
// plain loop bit for bit, once on the Go loops and, on a CPU with AVX2,
// once on the vector bodies: every row and column count from 0 to 40
// (whole eight-row blocks and every row tail, whole four-column steps and
// every column tail) and the FMM's 152- and 294-point surfaces, half of
// the cases with ±0, ±Inf, NaN, subnormals and 1e±300 mixed into the
// matrix, x and dst. MulAddCols runs k = 1, 2, 3, 4, 5 and 8 columns
// (whole groups of four and every remainder) against k one-column calls
// of the plain loop. An FMA, a re-association or a column read from
// another column fails it, and so does a store past the end of dst: the
// three elements after it are sentinels that must keep their bits.
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
	const r, tail, maxK = 0.37, 3, 8
	for _, rows := range sizes {
		for _, cols := range sizes {
			withSpecial := rng.Intn(2) == 0
			m := &Dense{Rows: rows, Cols: cols, Data: fill(make([]float64, rows*cols), withSpecial)}
			x := fill(make([]float64, maxK*cols), withSpecial)
			init := fill(make([]float64, maxK*rows+tail), withSpecial)
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
				got := append([]float64(nil), init[:rows+tail]...)
				want := append([]float64(nil), init[:rows+tail]...)
				clear(want[:rows])
				m.MatVec(got[:rows], x[:cols])
				refMulAdd(m, want[:rows], x[:cols], 1)
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

				for _, alpha := range []float64{1, -0.5, 1 / r} {
					for _, k := range []int{1, 2, 3, 4, 5, maxK} {
						got = append([]float64(nil), init[:k*rows+tail]...)
						want = append([]float64(nil), init[:k*rows+tail]...)
						m.MulAddCols(got[:k*rows], x[:k*cols], k, alpha)
						for c := 0; c < k; c++ {
							refMulAdd(m, want[c*rows:(c+1)*rows], x[c*cols:(c+1)*cols], alpha)
						}
						check(fmt.Sprintf("MulAddCols(k=%d, alpha=%v)", k, alpha), got, want)
					}
				}
			}
		}
	}
}

// TestMulBodiesAgree holds Mul to the plain i-k-j loop bit for bit, once
// on the Go loop and, on a CPU with AVX2, once on the vector body: every
// product width from 0 to 13 (whole steps of four and every tail) and the
// FMM's 152- and 294-point surfaces, half of the cases with ±0, ±Inf,
// NaN, subnormals and 1e±300 in both factors. The zero skip is part of
// the contract: 0·Inf would be a NaN.
func TestMulBodiesAgree(t *testing.T) {
	detected := cpu.AVX2
	t.Cleanup(func() { cpu.AVX2 = detected })
	special := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		5e-324, -4.9e-322, 1e300, -1e300, 1e-300,
	}
	rng := rand.New(rand.NewSource(12))
	fill := func(m *Dense, withSpecial bool) *Dense {
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
			if withSpecial && rng.Intn(6) == 0 {
				m.Data[i] = special[rng.Intn(len(special))]
			}
		}
		return m
	}
	var shapes [][3]int
	for n := 0; n <= 13; n++ {
		shapes = append(shapes, [3]int{3, 5, n}, [3]int{n, 4, 7})
	}
	shapes = append(shapes, [3]int{152, 152, 152}, [3]int{294, 294, 294}, [3]int{20, 294, 98})
	for _, sh := range shapes {
		withSpecial := rng.Intn(2) == 0
		a, b := fill(NewDense(sh[0], sh[1]), withSpecial), fill(NewDense(sh[1], sh[2]), withSpecial)
		want := NewDense(sh[0], sh[2])
		for i := 0; i < a.Rows; i++ {
			for k := 0; k < a.Cols; k++ {
				av := a.At(i, k)
				if av == 0 {
					continue
				}
				for j := 0; j < b.Cols; j++ {
					want.Data[i*want.Cols+j] += av * b.At(k, j)
				}
			}
		}
		for _, avx2 := range []bool{false, detected} {
			cpu.AVX2 = avx2
			got := Mul(a, b)
			for i := range want.Data {
				if !sameFloatBits(got.Data[i], want.Data[i]) {
					t.Fatalf("Mul %dx%d * %dx%d (AVX2 %v, special %v) element %d: got %x want %x",
						a.Rows, a.Cols, b.Rows, b.Cols, avx2, withSpecial, i, got.Data[i], want.Data[i])
				}
			}
		}
	}
}

// TestMatVecAllocatesNothing: the vector bodies keep their row sums on
// the stack, for one column and for a group of four.
func TestMatVecAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := randomDense(rng, 37, 29)
	for _, k := range []int{1, 4, 5} {
		x, dst := make([]float64, k*29), make([]float64, k*37)
		if a := testing.AllocsPerRun(10, func() { m.MulAddCols(dst, x, k, 0.5) }); a != 0 {
			t.Errorf("MulAddCols of %d columns allocates %v times per call", k, a)
		}
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
// see in a stack trace: one shape check serves both entry points but
// still names the one that was called.
func TestMatVecPanicMessagesNameTheEntryPoint(t *testing.T) {
	a := NewDense(3, 4)
	for name, f := range map[string]func(){
		"MatVec":     func() { a.MatVec(make([]float64, 3), make([]float64, 3)) },
		"MulAddCols": func() { a.MulAddCols(make([]float64, 6), make([]float64, 10), 2, 1) },
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

// BenchmarkMulAddCols times square operator applications at the FMM's
// two usual surface sizes (degree 6: 152 points, degree 8: 294), one
// column and four columns per call.
func BenchmarkMulAddCols(b *testing.B) {
	for _, c := range []struct{ n, k int }{{152, 1}, {294, 1}, {294, 4}} {
		b.Run(fmt.Sprintf("n=%d/k=%d", c.n, c.k), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			m := randomDense(rng, c.n, c.n)
			x := make([]float64, c.k*c.n)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			dst := make([]float64, c.k*c.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.MulAddCols(dst, x, c.k, 0.5)
			}
		})
	}
}
