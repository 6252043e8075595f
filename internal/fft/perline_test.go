package fft

import (
	"math"
	"math/rand"
	"testing"
)

// This file keeps the one-line-at-a-time engine the row engine replaced,
// as the bitwise reference for it: a recursive Cooley–Tukey (refRec) that
// gathers each line of a 3-D pass into a buffer, transforms it and
// scatters it back (refPass). Every element of the row engine must keep
// this engine's expression, operand order and rounding.

// refScratch carries one reference transform's line buffers.
type refScratch struct {
	in, out, aux []complex128
}

func newRefScratch(p *Plan3R) *refScratch {
	return &refScratch{
		in:  make([]complex128, p.m),
		out: make([]complex128, p.m),
		aux: make([]complex128, realScratchLen(p.p)),
	}
}

func refForward(p *plan, dst, src []complex128) {
	refRec(p, dst, src, p.n, 1, 1, 0, p.w, -1)
}

func refInverse(p *plan, dst, src []complex128) {
	refRec(p, dst, src, p.n, 1, 1, 0, p.winv, 1)
	inv := complex(1/float64(p.n), 0)
	for i := range dst {
		dst[i] *= inv
	}
}

// refRec computes an n-point DFT of src (elements src[0], src[stride], ...)
// into dst (contiguous). wstep is N/n where N is the plan length; depth
// indexes into the factor list; sign is -1 for the forward direction
// and +1 for the inverse (it orients the hardcoded butterflies; the
// matching root table w is passed alongside).
func refRec(p *plan, dst, src []complex128, n, stride, wstep, depth int, w []complex128, sign float64) {
	switch n {
	case 1:
		dst[0] = src[0]
		return
	case 2:
		refLeaf2(dst, src, stride)
		return
	case 3:
		refLeaf3(dst, src, stride, sign)
		return
	case 4:
		refLeaf4(dst, src, stride, sign)
		return
	case 5:
		refLeaf5(dst, src, stride, sign)
		return
	}
	f := p.factors[depth]
	m := n / f
	// Decimation in time: f interleaved sub-transforms of length m,
	// combined with f-point butterflies.
	for a := 0; a < f; a++ {
		refRec(p, dst[a*m:(a+1)*m], src[a*stride:], m, stride*f, wstep*f, depth+1, w, sign)
	}
	switch f {
	case 2:
		refCombine2(dst, m, wstep, w)
	case 3:
		refCombine3(dst, m, wstep, w, sign)
	case 4:
		refCombine4(dst, m, wstep, w, sign)
	case 5:
		refCombine5(dst, m, wstep, w, sign)
	}
}

func refLeaf2(dst, src []complex128, stride int) {
	x0, x1 := src[0], src[stride]
	dst[0] = x0 + x1
	dst[1] = x0 - x1
}

func refLeaf3(dst, src []complex128, stride int, sign float64) {
	x0, x1, x2 := src[0], src[stride], src[2*stride]
	s := x1 + x2
	d := muli(scale(x1-x2, sin60), sign)
	u := x0 - scale(s, 0.5)
	dst[0] = x0 + s
	dst[1] = u + d
	dst[2] = u - d
}

func refLeaf4(dst, src []complex128, stride int, sign float64) {
	x0, x1 := src[0], src[stride]
	x2, x3 := src[2*stride], src[3*stride]
	a, b := x0+x2, x0-x2
	c, d := x1+x3, muli(x1-x3, sign)
	dst[0] = a + c
	dst[1] = b + d
	dst[2] = a - c
	dst[3] = b - d
}

func refLeaf5(dst, src []complex128, stride int, sign float64) {
	x0 := src[0]
	x1, x2 := src[stride], src[2*stride]
	x3, x4 := src[3*stride], src[4*stride]
	p1, m1 := x1+x4, x1-x4
	p2, m2 := x2+x3, x2-x3
	u1 := x0 + scale(p1, cos5a) + scale(p2, cos5b)
	u2 := x0 + scale(p1, cos5b) + scale(p2, cos5a)
	v1 := muli(scale(m1, sin5a)+scale(m2, sin5b), sign)
	v2 := muli(scale(m1, sin5b)-scale(m2, sin5a), sign)
	dst[0] = x0 + p1 + p2
	dst[1] = u1 + v1
	dst[2] = u2 + v2
	dst[3] = u2 - v2
	dst[4] = u1 - v1
}

// The combine kernels implement the Cooley–Tukey recombination
// X[c+d*m] = Σ_a ω_f^{ad} (w_n^{ac} Y_a[c]) for one hardcoded radix f:
// twiddle each sub-transform output, then apply the same butterfly as
// the matching leaf kernel. Twiddle indices a*c*wstep stay below the
// table length by construction (a*c <= (f-1)(m-1) < n), so no modular
// reduction is needed.

func refCombine2(dst []complex128, m, wstep int, w []complex128) {
	for c := 0; c < m; c++ {
		t := w[c*wstep] * dst[m+c]
		x := dst[c]
		dst[c] = x + t
		dst[m+c] = x - t
	}
}

func refCombine3(dst []complex128, m, wstep int, w []complex128, sign float64) {
	for c := 0; c < m; c++ {
		t1 := w[c*wstep] * dst[m+c]
		t2 := w[2*c*wstep] * dst[2*m+c]
		x0 := dst[c]
		s := t1 + t2
		d := muli(scale(t1-t2, sin60), sign)
		u := x0 - scale(s, 0.5)
		dst[c] = x0 + s
		dst[m+c] = u + d
		dst[2*m+c] = u - d
	}
}

func refCombine4(dst []complex128, m, wstep int, w []complex128, sign float64) {
	for c := 0; c < m; c++ {
		t1 := w[c*wstep] * dst[m+c]
		t2 := w[2*c*wstep] * dst[2*m+c]
		t3 := w[3*c*wstep] * dst[3*m+c]
		x0 := dst[c]
		a, b := x0+t2, x0-t2
		s, d := t1+t3, muli(t1-t3, sign)
		dst[c] = a + s
		dst[m+c] = b + d
		dst[2*m+c] = a - s
		dst[3*m+c] = b - d
	}
}

func refCombine5(dst []complex128, m, wstep int, w []complex128, sign float64) {
	for c := 0; c < m; c++ {
		t1 := w[c*wstep] * dst[m+c]
		t2 := w[2*c*wstep] * dst[2*m+c]
		t3 := w[3*c*wstep] * dst[3*m+c]
		t4 := w[4*c*wstep] * dst[4*m+c]
		x0 := dst[c]
		p1, m1 := t1+t4, t1-t4
		p2, m2 := t2+t3, t2-t3
		u1 := x0 + scale(p1, cos5a) + scale(p2, cos5b)
		u2 := x0 + scale(p1, cos5b) + scale(p2, cos5a)
		v1 := muli(scale(m1, sin5a)+scale(m2, sin5b), sign)
		v2 := muli(scale(m1, sin5b)-scale(m2, sin5a), sign)
		dst[c] = x0 + p1 + p2
		dst[m+c] = u1 + v1
		dst[2*m+c] = u2 + v2
		dst[3*m+c] = u2 - v2
		dst[4*m+c] = u1 - v1
	}
}

// refForwardReal is forwardReal, one line at a time.
//
// For even n the real line is packed into a half-length complex signal
// (z[j] = x[2j] + i·x[2j+1]), transformed with the half-length plan and
// unpacked — a real transform at roughly half the complex cost. Odd
// lengths fall back to a full complex transform.
func refForwardReal(p *plan, dst []complex128, src []float64, scratch []complex128) {
	n := p.n
	if len(dst) != n/2+1 || len(src) != n {
		panic("fft: slice length does not match plan")
	}
	if n == 1 {
		dst[0] = complex(src[0], 0)
		return
	}
	if p.half == nil {
		// Odd length: widen to complex and keep the first half spectrum.
		in := scratch[:n]
		out := scratch[n : 2*n]
		for j, v := range src {
			in[j] = complex(v, 0)
		}
		refRec(p, out, in, n, 1, 1, 0, p.w, -1)
		copy(dst, out[:len(dst)])
		return
	}
	m := n / 2
	z := scratch[:m]
	for j := 0; j < m; j++ {
		z[j] = complex(src[2*j], src[2*j+1])
	}
	zf := scratch[m : 2*m]
	refRec(p.half, zf, z, m, 1, 1, 0, p.half.w, -1)
	// Unpack: with E/O the spectra of the even/odd samples,
	// E[k] = (Z[k]+conj(Z[m-k]))/2, O[k] = -i(Z[k]-conj(Z[m-k]))/2 and
	// X[k] = E[k] + w_n^k O[k] for k = 0..m (indices mod m).
	for k := 0; k <= m; k++ {
		zk := zf[0]
		if k < m {
			zk = zf[k]
		}
		zmk := zf[0]
		if k > 0 && k < m {
			zmk = zf[m-k]
		}
		cz := complex(real(zmk), -imag(zmk))
		e := scale(zk+cz, 0.5)
		o := scale(zk-cz, 0.5)
		o = complex(imag(o), -real(o)) // -i * o
		dst[k] = e + p.w[k]*o
	}
}

// refInverseReal is inverseReal, one line at a time.
func refInverseReal(p *plan, dst []float64, src []complex128, scratch []complex128) {
	n := p.n
	if len(dst) != n || len(src) != n/2+1 {
		panic("fft: slice length does not match plan")
	}
	if n == 1 {
		dst[0] = real(src[0])
		return
	}
	if p.half == nil {
		// Odd length: rebuild the full spectrum by symmetry and take the
		// real part of a complex inverse.
		full := scratch[:n]
		copy(full, src)
		for j := len(src); j < n; j++ {
			v := src[n-j]
			full[j] = complex(real(v), -imag(v))
		}
		out := scratch[n : 2*n]
		refRec(p, out, full, n, 1, 1, 0, p.winv, 1)
		inv := 1 / float64(n)
		for j := 0; j < n; j++ {
			dst[j] = real(out[j]) * inv
		}
		return
	}
	// Repack: Z[k] = E[k] + i·O[k] with E[k] = (X[k]+conj(X[m-k]))/2 and
	// O[k] = w_n^{-k}(X[k]-conj(X[m-k]))/2; the half-length inverse then
	// yields z[j] = x[2j] + i·x[2j+1] (its 1/m scaling is exactly the 1/n
	// the full inverse needs).
	m := n / 2
	zf := scratch[:m]
	for k := 0; k < m; k++ {
		xk := src[k]
		xmk := src[m-k]
		cx := complex(real(xmk), -imag(xmk))
		e := scale(xk+cx, 0.5)
		o := scale(xk-cx, 0.5) * p.winv[k]
		zf[k] = e + complex(-imag(o), real(o)) // e + i*o
	}
	z := scratch[m : 2*m]
	refRec(p.half, z, zf, m, 1, 1, 0, p.half.winv, 1)
	inv := 1 / float64(m)
	for j := 0; j < m; j++ {
		dst[2*j] = real(z[j]) * inv
		dst[2*j+1] = imag(z[j]) * inv
	}
}

// refForwardCorner is ForwardCorner, one line at a time.
func refForwardCorner(p *Plan3R, dst []complex128, src []float64, n int) {
	m, k := p.m, p.k
	sc := newRefScratch(p)
	// Along z: real-to-complex, contiguous on both sides.
	for x := 0; x < m; x++ {
		for y := 0; y < m; y++ {
			xy := x*m + y
			if x < n && y < n {
				refForwardReal(p.p, dst[xy*k:xy*k+k], src[xy*m:xy*m+m], sc.aux)
			} else {
				clear(dst[xy*k : xy*k+k])
			}
		}
	}
	// Along y on the planes x < n, then along x everywhere.
	refPass(p, dst, sc, n, m*k, k, false)
	refPass(p, dst, sc, m, k, m*k, false)
}

// refInverseCorner is InverseCorner, one line at a time.
func refInverseCorner(p *Plan3R, dst []float64, src []complex128, n int) {
	m, k := p.m, p.k
	sc := newRefScratch(p)
	refPass(p, src, sc, m, m*k, k, true)
	refPass(p, src, sc, n, k, m*k, true)
	// Along z: complex-to-real reconstruction via conjugate symmetry.
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			xy := x*m + y
			refInverseReal(p.p, dst[xy*m:xy*m+m], src[xy*k:xy*k+k], sc.aux)
		}
	}
}

// refPass runs full complex transforms, in place, over lines of g with
// element stride `stride`: one per stored z-frequency in each of the
// first `planes` planes of the other complex axis (plane stride
// planeStride). The y pass is (planeStride, stride) = (m·k, k), the x
// pass (k, m·k).
func refPass(p *Plan3R, g []complex128, sc *refScratch, planes, planeStride, stride int, inverse bool) {
	m, k := p.m, p.k
	for a := 0; a < planes; a++ {
		for iz := 0; iz < k; iz++ {
			base := a*planeStride + iz
			for i := 0; i < m; i++ {
				sc.in[i] = g[base+i*stride]
			}
			if inverse {
				refInverse(p.p, sc.out, sc.in)
			} else {
				refForward(p.p, sc.out, sc.in)
			}
			for i := 0; i < m; i++ {
				g[base+i*stride] = sc.out[i]
			}
		}
	}
}

// TestPlan3RRowsMatchPerLine: the row engine is the per-line engine bit
// for bit (any two NaNs agree) — Forward, Inverse, ForwardCorner and
// InverseCorner for every 5-smooth grid edge m from 1 to 32 and every
// corner n, on inputs that mix signed zeros, infinities, NaN,
// subnormals and 1e±300 with normal values. The lines outside the corner
// hold sentinels: NaN in the forward input, which must not be read, and
// a fixed value in the inverse output, which must not be written.
func TestPlan3RRowsMatchPerLine(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, m := range smoothLengths() {
		p := NewPlan3R(m)
		for n := 1; n <= m; n++ {
			// Each corner gets one input mix, the mixes taking turns.
			mix := specialMixes[(m+n)%len(specialMixes)]
			src := make([]float64, p.RealLen())
			for i := range src {
				src[i] = math.NaN()
			}
			for x := 0; x < n; x++ {
				for y := 0; y < n; y++ {
					for z := 0; z < m; z++ {
						src[(x*m+y)*m+z] = mix.value(rng)
					}
				}
			}
			want := make([]complex128, p.FreqLen())
			got := make([]complex128, p.FreqLen())
			for i := range got {
				got[i] = complex(math.NaN(), -3)
			}
			refForwardCorner(p, want, src, n)
			if n == m {
				p.Forward(got, src)
			} else {
				p.ForwardCorner(got, src, n)
			}
			if i := firstComplexDiff(got, want); i >= 0 {
				t.Fatalf("m=%d n=%d %s: forward [%d] = %v, per line %v", m, n, mix.name, i, got[i], want[i])
			}

			spec := make([]complex128, p.FreqLen())
			for i := range spec {
				spec[i] = complex(mix.value(rng), mix.value(rng))
			}
			wantR := make([]float64, p.RealLen())
			gotR := make([]float64, p.RealLen())
			for i := range gotR {
				wantR[i], gotR[i] = -7, -7
			}
			refInverseCorner(p, wantR, append([]complex128(nil), spec...), n)
			if n == m {
				p.Inverse(gotR, spec)
			} else {
				p.InverseCorner(gotR, spec, n)
			}
			if i := firstRealDiff(gotR, wantR); i >= 0 {
				t.Fatalf("m=%d n=%d %s: inverse [%d] = %v, per line %v", m, n, mix.name, i, gotR[i], wantR[i])
			}
		}
	}
}

// TestPlanRowsMatchPerLine: the row engine at a width of one line is the
// per-line engine bit for bit for every 5-smooth length through 64.
func TestPlanRowsMatchPerLine(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for n := 1; n <= 64; n++ {
		if NextSmooth(n) != n {
			continue
		}
		p := newPlan(n)
		for _, mix := range specialMixes {
			x := make([]complex128, n)
			r := make([]float64, n)
			for i := range x {
				x[i] = complex(mix.value(rng), mix.value(rng))
				r[i] = mix.value(rng)
			}
			got, want := make([]complex128, n), make([]complex128, n)
			forward(p, got, x)
			refForward(p, want, x)
			if i := firstComplexDiff(got, want); i >= 0 {
				t.Fatalf("n=%d %s: Forward[%d] = %v, per line %v", n, mix.name, i, got[i], want[i])
			}
			inverse(p, got, x)
			refInverse(p, want, x)
			if i := firstComplexDiff(got, want); i >= 0 {
				t.Fatalf("n=%d %s: Inverse[%d] = %v, per line %v", n, mix.name, i, got[i], want[i])
			}
			h := n/2 + 1
			forwardReal1(p, got[:h], r)
			refForwardReal(p, want[:h], r, make([]complex128, realScratchLen(p)))
			if i := firstComplexDiff(got[:h], want[:h]); i >= 0 {
				t.Fatalf("n=%d %s: ForwardReal[%d] = %v, per line %v", n, mix.name, i, got[i], want[i])
			}
			gotR, wantR := make([]float64, n), make([]float64, n)
			inverseReal1(p, gotR, x[:h])
			refInverseReal(p, wantR, x[:h], make([]complex128, realScratchLen(p)))
			if i := firstRealDiff(gotR, wantR); i >= 0 {
				t.Fatalf("n=%d %s: InverseReal[%d] = %v, per line %v", n, mix.name, i, gotR[i], wantR[i])
			}
		}
	}
}

// specialMixes are the input distributions of the bitwise oracles: one
// value in four from the finite specials, mostly signed zeros, and a
// sprinkle of infinities and NaNs among normal values.
var specialMixes = []struct {
	name  string
	value func(*rand.Rand) float64
}{
	{"finite specials", func(rng *rand.Rand) float64 {
		if rng.Intn(4) == 0 {
			return finiteSpecials[rng.Intn(len(finiteSpecials))]
		}
		return rng.NormFloat64()
	}},
	{"signed zeros", func(rng *rand.Rand) float64 {
		switch rng.Intn(8) {
		case 0:
			return rng.NormFloat64()
		case 1, 2, 3:
			return math.Copysign(0, -1)
		}
		return 0
	}},
	{"non-finite", func(rng *rand.Rand) float64 {
		if rng.Intn(64) == 0 {
			return []float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
		}
		return rng.NormFloat64()
	}},
}

var finiteSpecials = []float64{
	0, math.Copysign(0, -1), 5e-324, -4.9e-322, 2.2e-308, 1e300, -1e300, 1e-300, -1e-300,
}

// sameFloatBits reports whether a and b have the same bits or are both NaN.
func sameFloatBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// firstComplexDiff returns the first index where got and want differ
// under sameFloatBits, or -1.
func firstComplexDiff(got, want []complex128) int {
	for i := range want {
		if !sameFloatBits(real(got[i]), real(want[i])) || !sameFloatBits(imag(got[i]), imag(want[i])) {
			return i
		}
	}
	return -1
}

// firstRealDiff is firstComplexDiff for real slices.
func firstRealDiff(got, want []float64) int {
	for i := range want {
		if !sameFloatBits(got[i], want[i]) {
			return i
		}
	}
	return -1
}
