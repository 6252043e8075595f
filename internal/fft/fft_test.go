package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

func randomSignal(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		s := complex(0, 0)
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(j*k) / float64(n)
			s += x[j] * cmplx.Exp(complex(0, ang))
		}
		out[k] = s
	}
	return out
}

func maxErr(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if e := cmplx.Abs(a[i] - b[i]); e > m {
			m = e
		}
	}
	return m
}

func TestForwardMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// Cover powers of two and mixed radix.
	for _, n := range []int{1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 24, 30, 36, 60, 64, 100} {
		p := newPlan(n)
		x := randomSignal(rng, n)
		got := make([]complex128, n)
		forward(p, got, x)
		want := naiveDFT(x)
		if e := maxErr(got, want); e > 1e-9*float64(n) {
			t.Errorf("n=%d: max error %v", n, e)
		}
	}
}

func TestInverseRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 12, 16, 45, 128} {
		p := newPlan(n)
		x := randomSignal(rng, n)
		f := make([]complex128, n)
		back := make([]complex128, n)
		forward(p, f, x)
		inverse(p, back, f)
		if e := maxErr(back, x); e > 1e-11*float64(n) {
			t.Errorf("n=%d: roundtrip error %v", n, e)
		}
	}
}

func TestLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 24
	p := newPlan(n)
	x := randomSignal(rng, n)
	y := randomSignal(rng, n)
	alpha := complex(1.5, -0.5)
	sum := make([]complex128, n)
	for i := range sum {
		sum[i] = x[i] + alpha*y[i]
	}
	fx := make([]complex128, n)
	fy := make([]complex128, n)
	fs := make([]complex128, n)
	forward(p, fx, x)
	forward(p, fy, y)
	forward(p, fs, sum)
	for i := range fs {
		if cmplx.Abs(fs[i]-(fx[i]+alpha*fy[i])) > 1e-10 {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

func TestParsevalEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n := 60
	p := newPlan(n)
	x := randomSignal(rng, n)
	f := make([]complex128, n)
	forward(p, f, x)
	et, ef := 0.0, 0.0
	for i := range x {
		et += real(x[i] * cmplx.Conj(x[i]))
		ef += real(f[i] * cmplx.Conj(f[i]))
	}
	if math.Abs(ef-float64(n)*et) > 1e-9*ef {
		t.Errorf("Parseval: freq energy %v, n*time energy %v", ef, float64(n)*et)
	}
}

func TestImpulseGivesFlatSpectrum(t *testing.T) {
	n := 30
	p := newPlan(n)
	x := make([]complex128, n)
	x[0] = 1
	f := make([]complex128, n)
	forward(p, f, x)
	for i, v := range f {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse spectrum[%d] = %v", i, v)
		}
	}
}

func TestConvolutionTheorem1D(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 12
	p := newPlan(n)
	a := randomSignal(rng, n)
	b := randomSignal(rng, n)
	// Direct circular convolution.
	direct := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			direct[k] += a[mod(k-j, n)] * b[j]
		}
	}
	fa := make([]complex128, n)
	fb := make([]complex128, n)
	forward(p, fa, a)
	forward(p, fb, b)
	for i := range fa {
		fa[i] *= fb[i]
	}
	viaFFT := make([]complex128, n)
	inverse(p, viaFFT, fa)
	if e := maxErr(direct, viaFFT); e > 1e-10 {
		t.Errorf("convolution theorem error %v", e)
	}
}

func TestPlan3RoundtripAndConvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	n := 6
	p3 := NewPlan3(n, n, n)
	a := randomSignal(rng, n*n*n)
	b := randomSignal(rng, n*n*n)
	// Roundtrip.
	work := append([]complex128(nil), a...)
	p3.Forward(work)
	p3.Inverse(work)
	if e := maxErr(work, a); e > 1e-10 {
		t.Fatalf("3-D roundtrip error %v", e)
	}
	// Convolution theorem in 3-D against the direct reference.
	direct := Convolve3(a, b, n)
	fa := append([]complex128(nil), a...)
	fb := append([]complex128(nil), b...)
	p3.Forward(fa)
	p3.Forward(fb)
	for i := range fa {
		fa[i] *= fb[i]
	}
	p3.Inverse(fa)
	if e := maxErr(direct, fa); e > 1e-9 {
		t.Errorf("3-D convolution theorem error %v", e)
	}
}

func TestPlan3AnisotropicRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p3 := NewPlan3(4, 6, 5)
	x := randomSignal(rng, 4*6*5)
	work := append([]complex128(nil), x...)
	p3.Forward(work)
	p3.Inverse(work)
	if e := maxErr(work, x); e > 1e-10 {
		t.Errorf("anisotropic roundtrip error %v", e)
	}
}

// smoothLengths lists every 5-smooth length <= 32 — the complete set of
// line lengths the FMM's padded convolution grids can produce for
// practical surface degrees.
func smoothLengths() []int {
	var ns []int
	for n := 1; n <= 32; n++ {
		if NextSmooth(n) == n {
			ns = append(ns, n)
		}
	}
	return ns
}

// TestForwardAllSmoothLengths is the property test of the full complex
// path across every 5-smooth length the FMM can request: the mixed-radix
// recursion (all hardcoded radix-2/3/4/5 butterflies) must match the
// O(n²) reference transform.
func TestForwardAllSmoothLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range smoothLengths() {
		p := newPlan(n)
		x := randomSignal(rng, n)
		got := make([]complex128, n)
		forward(p, got, x)
		want := naiveDFT(x)
		if e := maxErr(got, want); e > 1e-12*float64(n) {
			t.Errorf("n=%d: max error %v", n, e)
		}
		back := make([]complex128, n)
		inverse(p, back, got)
		if e := maxErr(back, x); e > 1e-12*float64(n) {
			t.Errorf("n=%d: roundtrip error %v", n, e)
		}
	}
}

// TestForwardRealMatchesComplex validates the r2c path against the full
// complex transform of the widened input for every 5-smooth length <= 32
// (both the even-length packed path and the odd-length fallback).
func TestForwardRealMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range smoothLengths() {
		p, h := newPlan(n), n/2+1
		x := make([]float64, n)
		wide := make([]complex128, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			wide[i] = complex(x[i], 0)
		}
		want := make([]complex128, n)
		forward(p, want, wide)
		got := make([]complex128, h)
		forwardReal1(p, got, x)
		if e := maxErr(got, want[:len(got)]); e > 1e-12*float64(n) {
			t.Errorf("n=%d: r2c error %v", n, e)
		}
		// And the independent coefficients really determine the rest.
		for j := h; j < n; j++ {
			c := got[n-j]
			if cmplx.Abs(want[j]-complex(real(c), -imag(c))) > 1e-12*float64(n) {
				t.Errorf("n=%d: conjugate symmetry broken at %d", n, j)
			}
		}
		// c2r inverse closes the roundtrip.
		back := make([]float64, n)
		inverseReal1(p, back, got)
		for j := range back {
			if math.Abs(back[j]-x[j]) > 1e-12*float64(n) {
				t.Errorf("n=%d: real roundtrip error %v at %d", n, back[j]-x[j], j)
			}
		}
	}
}

// TestRealConvolutionAllSmoothLengths: the half spectrum must support
// the convolution theorem — the product of two r2c spectra
// inverse-transforms to the circular convolution of the real inputs.
func TestRealConvolutionAllSmoothLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range smoothLengths() {
		p, h := newPlan(n), n/2+1
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		direct := make([]float64, n)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				direct[k] += a[mod(k-j, n)] * b[j]
			}
		}
		fa := make([]complex128, h)
		fb := make([]complex128, h)
		forwardReal1(p, fa, a)
		forwardReal1(p, fb, b)
		for i := range fa {
			fa[i] *= fb[i]
		}
		got := make([]float64, n)
		inverseReal1(p, got, fa)
		for i := range got {
			if math.Abs(got[i]-direct[i]) > 1e-10*float64(n) {
				t.Errorf("n=%d: real convolution error %v at %d", n, got[i]-direct[i], i)
			}
		}
	}
}

// TestPlan3RMatchesConvolve3 validates the 3-D half-spectrum transform
// against the direct convolution reference on real inputs, covering an
// even and an odd grid edge.
func TestPlan3RMatchesConvolve3(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, m := range []int{4, 5, 6, 9} {
		p := NewPlan3R(m)
		n3 := m * m * m
		a := make([]float64, n3)
		b := make([]float64, n3)
		ca := make([]complex128, n3)
		cb := make([]complex128, n3)
		for i := 0; i < n3; i++ {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			ca[i] = complex(a[i], 0)
			cb[i] = complex(b[i], 0)
		}
		// Roundtrip.
		fa := make([]complex128, p.FreqLen())
		p.Forward(fa, a)
		back := make([]float64, n3)
		work := append([]complex128(nil), fa...)
		p.Inverse(back, work)
		for i := range back {
			if math.Abs(back[i]-a[i]) > 1e-11 {
				t.Fatalf("m=%d: 3-D real roundtrip error %v at %d", m, back[i]-a[i], i)
			}
		}
		// Convolution theorem against the direct reference.
		fb := make([]complex128, p.FreqLen())
		p.Forward(fb, b)
		for i := range fa {
			fa[i] *= fb[i]
		}
		got := make([]float64, n3)
		p.Inverse(got, fa)
		want := Convolve3(ca, cb, m)
		for i := range got {
			if math.Abs(got[i]-real(want[i])) > 1e-9 {
				t.Errorf("m=%d: 3-D real convolution error %v at %d", m, got[i]-real(want[i]), i)
			}
		}
	}
}

// TestPlan3RCornerMatchesFull: the corner transforms are the full ones
// with known-zero and unwanted lines skipped, so they must agree bit for
// bit — ForwardCorner with Forward on a grid supported on the leading n³
// corner (reading none of the lines outside it), InverseCorner with
// Inverse on that corner (writing nothing outside it). The grid edges
// run through 32, the M2L grid of degree 16, which is the largest the
// service admits.
func TestPlan3RCornerMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for m := 5; m <= 32; m++ {
		if NextSmooth(m) != m {
			continue
		}
		p := NewPlan3R(m)
		for n := 1; n <= m; n++ {
			full := make([]float64, p.RealLen())
			corner := make([]float64, p.RealLen())
			for i := range corner {
				corner[i] = math.NaN()
			}
			for x := 0; x < n; x++ {
				for y := 0; y < n; y++ {
					for z := 0; z < m; z++ {
						i := (x*m+y)*m + z
						corner[i] = 0
						if z < n {
							full[i] = rng.NormFloat64()
							corner[i] = full[i]
						}
					}
				}
			}
			want := make([]complex128, p.FreqLen())
			got := make([]complex128, p.FreqLen())
			for i := range got {
				got[i] = cmplx.NaN()
			}
			p.Forward(want, full)
			p.ForwardCorner(got, corner, n)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("m=%d n=%d: ForwardCorner[%d] = %v, Forward %v", m, n, i, got[i], want[i])
				}
			}

			spec := randomSignal(rng, p.FreqLen())
			work := append([]complex128(nil), spec...)
			wantR := make([]float64, p.RealLen())
			p.Inverse(wantR, work)
			copy(work, spec)
			gotR := make([]float64, p.RealLen())
			for i := range gotR {
				gotR[i] = -1
			}
			p.InverseCorner(gotR, work, n)
			for x := 0; x < m; x++ {
				for y := 0; y < m; y++ {
					for z := 0; z < m; z++ {
						i := (x*m+y)*m + z
						inside := x < n && y < n
						if inside && math.Float64bits(gotR[i]) != math.Float64bits(wantR[i]) {
							t.Fatalf("m=%d n=%d: InverseCorner[%d,%d,%d] = %v, Inverse %v", m, n, x, y, z, gotR[i], wantR[i])
						}
						if !inside && gotR[i] != -1 {
							t.Fatalf("m=%d n=%d: InverseCorner wrote [%d,%d,%d] outside the corner lines", m, n, x, y, z)
						}
					}
				}
			}
		}
	}
}

func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// TestPlan3RConcurrency: one Plan3R must serve concurrent transforms
// (the FMM fans box transforms out over a worker pool).
func TestPlan3RConcurrency(t *testing.T) {
	p := NewPlan3R(6)
	rng := rand.New(rand.NewSource(13))
	src := make([]float64, p.RealLen())
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	want := make([]complex128, p.FreqLen())
	p.Forward(want, src)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			got := make([]complex128, p.FreqLen())
			ok := true
			for i := 0; i < 50; i++ {
				p.Forward(got, src)
				if maxErr(got, want) != 0 {
					ok = false
				}
			}
			done <- ok
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent real transforms disagree")
		}
	}
}

func TestNextSmooth(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 7: 8, 11: 12, 13: 15, 16: 16, 17: 18, 31: 32, 121: 125}
	for in, want := range cases {
		if got := NextSmooth(in); got != want {
			t.Errorf("NextSmooth(%d) = %d, want %d", in, got, want)
		}
	}
	if NextSmooth(0) != 1 {
		t.Error("NextSmooth(0) must be 1")
	}
}

// TestPlanValidation: a plan of a length that is not 5-smooth (or below
// 1) panics when it is made, and Plan3R rejects grids and corners that do
// not fit it.
func TestPlanValidation(t *testing.T) {
	p := NewPlan3R(4)
	freq, vol := make([]complex128, p.FreqLen()), make([]float64, p.RealLen())
	for name, f := range map[string]func(){
		"plan 0":             func() { newPlan(0) },
		"plan 7":             func() { newPlan(7) },
		"plan 14":            func() { newPlan(14) },
		"Plan3R 0":           func() { NewPlan3R(0) },
		"Plan3R 7":           func() { NewPlan3R(7) },
		"Plan3R 14":          func() { NewPlan3R(14) },
		"short spectrum":     func() { p.Forward(freq[1:], vol) },
		"short grid":         func() { p.Inverse(vol[1:], freq) },
		"corner 0":           func() { p.ForwardCorner(freq, vol, 0) },
		"corner beyond edge": func() { p.InverseCorner(vol, freq, 5) },
		"Plan3 grid length":  func() { NewPlan3(2, 2, 2).Forward(make([]complex128, 7)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestPlanConcurrencySafety(t *testing.T) {
	p := newPlan(36)
	rng := rand.New(rand.NewSource(8))
	x := randomSignal(rng, 36)
	want := make([]complex128, 36)
	forward(p, want, x)
	done := make(chan bool)
	for g := 0; g < 8; g++ {
		go func() {
			got := make([]complex128, 36)
			for i := 0; i < 50; i++ {
				forward(p, got, x)
			}
			done <- maxErr(got, want) == 0
		}()
	}
	for g := 0; g < 8; g++ {
		if !<-done {
			t.Fatal("concurrent transforms disagree")
		}
	}
}

func BenchmarkForward12(b *testing.B)   { benchForward(b, 12) }
func BenchmarkForward64(b *testing.B)   { benchForward(b, 64) }
func BenchmarkForward3D12(b *testing.B) { benchForward3D(b, 12) }

func benchForward(b *testing.B, n int) {
	p := newPlan(n)
	x := randomSignal(rand.New(rand.NewSource(1)), n)
	dst := make([]complex128, n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		forward(p, dst, x)
	}
}

func benchForward3D(b *testing.B, n int) {
	p := NewPlan3(n, n, n)
	x := randomSignal(rand.New(rand.NewSource(1)), n*n*n)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Forward(x)
	}
}

// oddSmooth are the odd 5-smooth lengths the FMM's M2L grids can land
// on (M = 2p on even degrees, but odd grid edges appear through the
// NextSmooth padding policy and the degree-8 M=15 case). The even path
// takes the packed half-length transform; these lengths exercise the
// odd fallback, which PR 4's suite covered only incidentally.
func oddSmooth() []int { return []int{15, 25, 27} }

// TestRealFFTOddLengthsProperty: property tests of the odd-length
// forwardReal/inverseReal fallback — round trip, agreement with the
// complex path, linearity, and the inverse of an arbitrary
// conjugate-symmetric half spectrum matching the full complex inverse.
func TestRealFFTOddLengthsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range oddSmooth() {
		p, h := newPlan(n), n/2+1
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		// Round trip.
		fx := make([]complex128, h)
		forwardReal1(p, fx, x)
		back := make([]float64, n)
		inverseReal1(p, back, fx)
		for i := range back {
			if math.Abs(back[i]-x[i]) > 1e-12*float64(n) {
				t.Errorf("n=%d: odd real roundtrip error %v at %d", n, back[i]-x[i], i)
			}
		}
		// Match the complex path coefficient for coefficient.
		wide := make([]complex128, n)
		for i := range x {
			wide[i] = complex(x[i], 0)
		}
		want := make([]complex128, n)
		forward(p, want, wide)
		if e := maxErr(fx, want[:len(fx)]); e > 1e-12*float64(n) {
			t.Errorf("n=%d: odd r2c differs from complex path by %v", n, e)
		}
		// Linearity: FR(2x + 3y) == 2 FR(x) + 3 FR(y).
		fy := make([]complex128, h)
		forwardReal1(p, fy, y)
		mix := make([]float64, n)
		for i := range mix {
			mix[i] = 2*x[i] + 3*y[i]
		}
		fmix := make([]complex128, h)
		forwardReal1(p, fmix, mix)
		for i := range fmix {
			if cmplx.Abs(fmix[i]-(2*fx[i]+3*fy[i])) > 1e-11*float64(n) {
				t.Errorf("n=%d: odd r2c not linear at %d", n, i)
			}
		}
		// An arbitrary conjugate-symmetric half spectrum (bin 0 real —
		// it is its own conjugate partner at odd n) must inverse to the
		// real part of the symmetrized full complex inverse.
		spec := make([]complex128, h)
		spec[0] = complex(rng.NormFloat64(), 0)
		for i := 1; i < len(spec); i++ {
			spec[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		full := make([]complex128, n)
		copy(full, spec)
		for j := len(spec); j < n; j++ {
			v := spec[n-j]
			full[j] = complex(real(v), -imag(v))
		}
		ref := make([]complex128, n)
		inverse(p, ref, full)
		got := make([]float64, n)
		inverseReal1(p, got, spec)
		for i := range got {
			if math.Abs(got[i]-real(ref[i])) > 1e-12*float64(n) {
				t.Errorf("n=%d: odd c2r differs from complex inverse at %d", n, i)
			}
		}
	}
}

// TestPlan3ROddLengths: the cubic half-spectrum transform on odd grid
// edges — round trip, stored lines matching the full complex Plan3, and
// the convolution theorem against the complex path (the direct O(m^6)
// reference is out of reach at these sizes).
func TestPlan3ROddLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	lengths := oddSmooth()
	if testing.Short() {
		lengths = lengths[:1]
	}
	for _, m := range lengths {
		p := NewPlan3R(m)
		pc := NewPlan3(m, m, m)
		n3 := m * m * m
		k := p.HalfLen()
		a := make([]float64, n3)
		b := make([]float64, n3)
		ca := make([]complex128, n3)
		cb := make([]complex128, n3)
		for i := 0; i < n3; i++ {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
			ca[i] = complex(a[i], 0)
			cb[i] = complex(b[i], 0)
		}
		// Forward must match the stored lines of the complex transform.
		fa := make([]complex128, p.FreqLen())
		p.Forward(fa, a)
		pc.Forward(ca)
		for xy := 0; xy < m*m; xy++ {
			for iz := 0; iz < k; iz++ {
				if cmplx.Abs(fa[xy*k+iz]-ca[xy*m+iz]) > 1e-11*float64(m) {
					t.Fatalf("m=%d: half spectrum differs from complex grid at line %d bin %d", m, xy, iz)
				}
			}
		}
		// Round trip.
		back := make([]float64, n3)
		work := append([]complex128(nil), fa...)
		p.Inverse(back, work)
		for i := range back {
			if math.Abs(back[i]-a[i]) > 1e-10 {
				t.Fatalf("m=%d: odd 3-D real roundtrip error %v at %d", m, back[i]-a[i], i)
			}
		}
		// Convolution theorem vs the complex path.
		fb := make([]complex128, p.FreqLen())
		p.Forward(fb, b)
		for i := range fa {
			fa[i] *= fb[i]
		}
		got := make([]float64, n3)
		p.Inverse(got, fa)
		pc.Forward(cb)
		for i := range ca {
			ca[i] *= cb[i]
		}
		pc.Inverse(ca)
		for i := range got {
			if math.Abs(got[i]-real(ca[i])) > 1e-8 {
				t.Errorf("m=%d: odd real convolution differs from complex path by %v at %d", m, got[i]-real(ca[i]), i)
			}
		}
	}
}

// The corner transforms at the M2L's own shapes: M = 9 serves degree 5
// (a 5³ density corner), M = 12 degree 6 (a 6³ corner).
func BenchmarkPlan3RCorner9Forward(b *testing.B)  { benchCorner(b, 9, 5, false) }
func BenchmarkPlan3RCorner9Inverse(b *testing.B)  { benchCorner(b, 9, 5, true) }
func BenchmarkPlan3RCorner12Forward(b *testing.B) { benchCorner(b, 12, 6, false) }
func BenchmarkPlan3RCorner12Inverse(b *testing.B) { benchCorner(b, 12, 6, true) }
func BenchmarkPlan3RCorner15Forward(b *testing.B) { benchCorner(b, 15, 8, false) }
func BenchmarkPlan3RCorner15Inverse(b *testing.B) { benchCorner(b, 15, 8, true) }

func benchCorner(b *testing.B, m, n int, inverse bool) {
	p := NewPlan3R(m)
	rng := rand.New(rand.NewSource(1))
	vol := make([]float64, p.RealLen())
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			for z := 0; z < n; z++ {
				vol[(x*m+y)*m+z] = rng.NormFloat64()
			}
		}
	}
	freq := make([]complex128, p.FreqLen())
	p.ForwardCorner(freq, vol, n)
	// InverseCorner destroys its input; every call gets a fresh copy of
	// the spectrum, whose cost the forward benchmark pays too.
	spectrum := append([]complex128(nil), freq...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(freq, spectrum)
		if inverse {
			p.InverseCorner(vol, freq, n)
		} else {
			p.ForwardCorner(freq, vol, n)
		}
	}
}
