package linalg

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// refMatVecAddScaled is the plain one-row, one-accumulator loop the
// row-blocked kernel must reproduce bit for bit.
func refMatVecAddScaled(m *Dense, dst, x []float64, alpha float64) {
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		for j := 0; j < m.Cols; j++ {
			s += m.Data[i*m.Cols+j] * x[j]
		}
		dst[i] += alpha * s
	}
}

// TestMatVecBitwiseEqualsReference sweeps the row counts around the
// four-row block (tail of 0..3 rows, no full block, the FMM's 152- and
// 294-point surfaces) and asserts exact equality for all three entry
// points.
func TestMatVecBitwiseEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const r = 0.37
	for _, rows := range []int{0, 1, 2, 3, 4, 5, 7, 8, 152, 294} {
		for _, cols := range []int{0, 1, 3, 152, 294} {
			m := randomDense(rng, rows, cols)
			x := make([]float64, cols)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			init := make([]float64, rows)
			for i := range init {
				init[i] = rng.NormFloat64()
			}
			check := func(name string, got, want []float64) {
				t.Helper()
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s %dx%d row %d: got %x want %x", name, rows, cols, i, got[i], want[i])
					}
				}
			}

			// MatVec overwrites whatever dst held.
			got := append([]float64(nil), init...)
			want := make([]float64, rows)
			m.MatVec(got, x)
			refMatVecAddScaled(m, want, x, 1)
			for i := 0; i < rows; i++ {
				// The reference's 0 + 1*s must itself be the plain sum.
				s := 0.0
				for j := 0; j < cols; j++ {
					s += m.At(i, j) * x[j]
				}
				if want[i] != s {
					t.Fatalf("reference broken at %dx%d row %d", rows, cols, i)
				}
			}
			check("MatVec", got, want)

			got = append([]float64(nil), init...)
			want = append([]float64(nil), init...)
			m.MatVecAdd(got, x)
			refMatVecAddScaled(m, want, x, 1)
			check("MatVecAdd", got, want)

			for _, alpha := range []float64{1, -0.5, 1 / r} {
				got = append([]float64(nil), init...)
				want = append([]float64(nil), init...)
				m.MatVecAddScaled(got, x, alpha)
				refMatVecAddScaled(m, want, x, alpha)
				check(fmt.Sprintf("MatVecAddScaled(alpha=%v)", alpha), got, want)
			}
		}
	}
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
