package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func allKernels() []Kernel {
	return []Kernel{Laplace{}, NewModLaplace(1.5), NewStokes(0.7)}
}

// TestEvalReflectionIsTranspose pins the Kernel contract the operator
// set-up rests on: Eval(-r) is Eval(r) transposed, bitwise.
func TestEvalReflectionIsTranspose(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range append(allKernels(), NewKelvin(1.3, 0.3)) {
		sd, td := k.SourceDim(), k.TargetDim()
		if sd != td {
			t.Fatalf("%s: SourceDim %d != TargetDim %d", k.Name(), sd, td)
		}
		fwd, rev := make([]float64, td*sd), make([]float64, td*sd)
		for n := 0; n < 500; n++ {
			rx, ry, rz := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			k.Eval(rx, ry, rz, fwd)
			k.Eval(-rx, -ry, -rz, rev)
			for i := 0; i < td; i++ {
				for j := 0; j < sd; j++ {
					if a, b := fwd[i*sd+j], rev[j*sd+i]; math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%s: Eval(r)[%d][%d] = %v but Eval(-r)[%d][%d] = %v at r = (%v, %v, %v)",
							k.Name(), i, j, a, j, i, b, rx, ry, rz)
					}
				}
			}
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"laplace", "modlaplace", "stokes"} {
		k, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if k.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, k.Name())
		}
	}
	if _, err := ByName("helmholtz"); err == nil {
		t.Error("ByName should reject unknown kernels (paper excludes oscillatory kernels)")
	}
}

func TestLaplaceValue(t *testing.T) {
	var out [1]float64
	Laplace{}.Eval(2, 0, 0, out[:])
	want := 1 / (4 * math.Pi * 2)
	if math.Abs(out[0]-want) > 1e-15 {
		t.Errorf("laplace at r=2: got %v want %v", out[0], want)
	}
}

func TestModLaplaceReducesToLaplaceAtSmallLambda(t *testing.T) {
	k := NewModLaplace(1e-12)
	var a, b [1]float64
	k.Eval(0.3, -0.4, 0.5, a[:])
	Laplace{}.Eval(0.3, -0.4, 0.5, b[:])
	if math.Abs(a[0]-b[0]) > 1e-12*math.Abs(b[0]) {
		t.Errorf("modified laplace with tiny lambda should match laplace: %v vs %v", a[0], b[0])
	}
}

func TestModLaplaceDecay(t *testing.T) {
	k := NewModLaplace(3)
	var near, far [1]float64
	k.Eval(1, 0, 0, near[:])
	k.Eval(2, 0, 0, far[:])
	// Screened kernel must decay faster than 1/r: ratio < 1/2.
	if far[0] >= near[0]/2 {
		t.Errorf("screened kernel decays too slowly: %v -> %v", near[0], far[0])
	}
}

func TestStokesSymmetryAndTrace(t *testing.T) {
	k := NewStokes(1)
	var g [9]float64
	k.Eval(0.2, -0.7, 0.4, g[:])
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if g[3*i+j] != g[3*j+i] {
				t.Fatalf("Stokeslet must be symmetric: G[%d][%d]=%v G[%d][%d]=%v", i, j, g[3*i+j], j, i, g[3*j+i])
			}
		}
	}
	// trace(G) = 1/(8πμ) (3/r + r²·r/r³) = 1/(8πμ)·4/r.
	r := math.Sqrt(0.2*0.2 + 0.7*0.7 + 0.4*0.4)
	trace := g[0] + g[4] + g[8]
	want := 4 / (8 * math.Pi * r)
	if math.Abs(trace-want) > 1e-14 {
		t.Errorf("Stokeslet trace: got %v want %v", trace, want)
	}
}

func TestZeroDisplacementGivesZeroBlock(t *testing.T) {
	for _, k := range allKernels() {
		out := make([]float64, k.SourceDim()*k.TargetDim())
		for i := range out {
			out[i] = math.NaN()
		}
		k.Eval(0, 0, 0, out)
		for i, v := range out {
			if v != 0 {
				t.Errorf("%s: self-interaction block[%d] = %v, want 0", k.Name(), i, v)
			}
		}
	}
}

func TestHomogeneityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range allKernels() {
		hom, deg := k.Homogeneity()
		if !hom {
			continue
		}
		sd, td := k.SourceDim(), k.TargetDim()
		a := make([]float64, sd*td)
		b := make([]float64, sd*td)
		for trial := 0; trial < 50; trial++ {
			rx, ry, rz := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
			s := math.Exp(rng.NormFloat64())
			k.Eval(rx, ry, rz, a)
			k.Eval(s*rx, s*ry, s*rz, b)
			scale := math.Pow(s, deg)
			for i := range a {
				if math.Abs(b[i]-scale*a[i]) > 1e-12*math.Abs(scale*a[i])+1e-300 {
					t.Fatalf("%s: homogeneity violated: G(sr)=%v, s^deg G(r)=%v", k.Name(), b[i], scale*a[i])
				}
			}
		}
	}
}

func TestKernelSymmetryUnderNegation(t *testing.T) {
	// All three kernels are even in r: G(-r) = G(r).
	f := func(rx, ry, rz float64) bool {
		for _, k := range allKernels() {
			n := k.SourceDim() * k.TargetDim()
			a := make([]float64, n)
			b := make([]float64, n)
			k.Eval(rx, ry, rz, a)
			k.Eval(-rx, -ry, -rz, b)
			for i := range a {
				if a[i] != b[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConstructorsValidate(t *testing.T) {
	mustPanic(t, func() { NewModLaplace(0) })
	mustPanic(t, func() { NewModLaplace(-1) })
	mustPanic(t, func() { NewStokes(0) })
	mustPanic(t, func() { NewStokes(-2) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	f()
}
