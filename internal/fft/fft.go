// Package fft implements complex and real-input discrete Fourier
// transforms of arbitrary length and 3-D transforms built from them. It
// replaces the FFTW dependency of the paper's implementation; the FMM
// uses it to turn M2L translations into circular convolutions over the
// regular equivalent-surface lattice (paper Section 1: "the
// multipole-to-local translations are accelerated using local FFTs").
//
// The transform is a mixed-radix Cooley–Tukey decomposition that runs
// many lines at once: the lines sit side by side in rows, row j holding
// element j of every line, and every butterfly is a loop along a row, so
// a pass of a 3-D transform is one recursion over all of its lines
// rather than one per line. Each element keeps the expression, operand
// order and rounding of a one-line transform; the 1-D API is the same
// engine at a width of one line. The FMM always chooses 5-smooth grid
// sizes, so the hot path runs entirely on hardcoded radix-2/3/4/5
// butterfly kernels (twiddles read straight from the precomputed root
// table, once per row, no modular index arithmetic); other lengths are
// supported for generality through a generic combine step and an O(p²)
// direct DFT for prime factors >= 7.
//
// Densities and kernel tensors in the FMM are purely real, so the
// package also provides real-to-complex transforms (ForwardReal /
// InverseReal and the 3-D Plan3R): conjugate symmetry means only
// ⌊n/2⌋+1 of the n Fourier coefficients are independent, halving the
// storage, Hadamard and inverse-transform work of the convolution.
package fft

import (
	"math"
	"sync"
)

// Plan holds the precomputed root table for transforms of one length.
// A Plan is immutable after creation and safe for concurrent use.
type Plan struct {
	n       int
	w       []complex128 // w[j] = exp(-2πi j/n)
	winv    []complex128 // winv[j] = exp(+2πi j/n)
	factors []int        // mixed-radix factorization of n (4s first, then 2, 3, 5, primes)
	scratch int          // gather scratch for generic combines (largest factor >= 7, else 0)
	half    *Plan        // length n/2 companion for the even-length real transforms
}

// NewPlan creates a transform plan for length n >= 1.
func NewPlan(n int) *Plan {
	p := newPlan(n)
	if n%2 == 0 {
		// Companion plan for the packed even-length real transforms. One
		// level suffices — the real path only ever halves once.
		p.half = newPlan(n / 2)
	}
	return p
}

// newPlan builds the root table and factorization for one length,
// without the real-transform companion.
func newPlan(n int) *Plan {
	if n < 1 {
		panic("fft: length must be >= 1")
	}
	p := &Plan{n: n, w: make([]complex128, n), winv: make([]complex128, n)}
	for j := 0; j < n; j++ {
		s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
		p.w[j] = complex(c, s)
		p.winv[j] = complex(c, -s)
	}
	p.factors = factorize(n)
	for _, f := range p.factors {
		if f >= 7 && f > p.scratch {
			p.scratch = f
		}
	}
	return p
}

// factorize returns the mixed-radix factor list: radix-4 stages first
// (fewer, wider butterflies than radix-2 pairs), then at most one 2,
// then 3s, 5s, and any remaining primes ascending.
func factorize(n int) []int {
	var fs []int
	for n%4 == 0 {
		fs = append(fs, 4)
		n /= 4
	}
	if n%2 == 0 {
		fs = append(fs, 2)
		n /= 2
	}
	for n%3 == 0 {
		fs = append(fs, 3)
		n /= 3
	}
	for n%5 == 0 {
		fs = append(fs, 5)
		n /= 5
	}
	for f := 7; f*f <= n; f += 2 {
		for n%f == 0 {
			fs = append(fs, f)
			n /= f
		}
	}
	if n > 1 {
		fs = append(fs, n)
	}
	return fs
}

// Len returns the transform length.
func (p *Plan) Len() int { return p.n }

// HalfLen returns the number of independent Fourier coefficients of a
// real input of this length: n/2 + 1 (conjugate symmetry determines the
// rest).
func (p *Plan) HalfLen() int { return p.n/2 + 1 }

// ScratchLen returns the gather-scratch length one transform of this
// plan needs; w lines side by side need w times as much. It is zero for
// 5-smooth lengths, whose butterflies are all hardcoded.
func (p *Plan) ScratchLen() int { return p.scratch }

// RealScratchLen returns the scratch length one real transform of this
// plan needs; w lines side by side need w times as much.
func (p *Plan) RealScratchLen() int {
	if p.half != nil {
		return p.n + p.half.scratch
	}
	return 2*p.n + p.scratch
}

// Forward computes dst = DFT(src) (negative exponent, unscaled).
// dst and src must both have length n and must not alias.
func (p *Plan) Forward(dst, src []complex128) {
	p.check(dst, src)
	p.transform(dst, src, 1, 1, false, make([]complex128, p.scratch))
}

// Inverse computes dst = IDFT(src), scaled by 1/n so that
// Inverse(Forward(x)) == x. dst and src must not alias.
func (p *Plan) Inverse(dst, src []complex128) {
	p.check(dst, src)
	p.transform(dst, src, 1, 1, true, make([]complex128, p.scratch))
	scaleRows(dst, 0, dst, 0, p.n, 1, complex(1/float64(p.n), 0))
}

// ForwardReal computes the first HalfLen() coefficients of the DFT of a
// real signal (the remaining ones follow from X[n-k] = conj(X[k])).
// dst must have length HalfLen(), src length n.
func (p *Plan) ForwardReal(dst []complex128, src []float64) {
	if len(dst) != p.HalfLen() || len(src) != p.n {
		panic("fft: slice length does not match plan")
	}
	p.forwardReal(dst, src, 1, make([]complex128, p.RealScratchLen()))
}

// InverseReal computes the real inverse DFT (scaled by 1/n) of a
// conjugate-symmetric spectrum given by its first HalfLen()
// coefficients, so that InverseReal(ForwardReal(x)) == x. dst must have
// length n, src length HalfLen(). src is read-only.
func (p *Plan) InverseReal(dst []float64, src []complex128) {
	if len(dst) != p.n || len(src) != p.HalfLen() {
		panic("fft: slice length does not match plan")
	}
	p.inverseReal(dst, src, 1, make([]complex128, p.RealScratchLen()))
}

func (p *Plan) check(dst, src []complex128) {
	if len(dst) != p.n || len(src) != p.n {
		panic("fft: slice length does not match plan")
	}
	if p.n > 0 && &dst[0] == &src[0] {
		panic("fft: dst must not alias src")
	}
}

// lines transforms, in place, w lines of g that sit side by side:
// element j of line l is g[j*rs+l]. sc is scratch of length
// >= (n+ScratchLen())·w; the transform lands in its first n·w values and
// is copied back (scaled by 1/n when inverse).
func (p *Plan) lines(g []complex128, w, rs int, inverse bool, sc []complex128) {
	n := p.n
	out := sc[:n*w]
	p.transform(out, g, w, rs, inverse, sc[n*w:])
	if inverse {
		scaleRows(g, rs, out, w, w, n, complex(1/float64(n), 0))
		return
	}
	for j := 0; j < n; j++ {
		copy(g[j*rs:][:w], out[j*w:])
	}
}

// scaleRows sets the rows j < rows of g, g[j*gs:][:w], to inv times the
// rows src[j*ss:][:w]: the complex product with 1/n + 0i that closes
// every inverse transform of length n. g and src may be the same rows.
func scaleRows(g []complex128, gs int, src []complex128, ss, w, rows int, inv complex128) {
	for j := 0; j < rows; j++ {
		row := src[j*ss:][:w]
		gj := g[j*gs:][:len(row)]
		for l, v := range row {
			gj[l] = v * inv
		}
	}
}

// forwardReal computes the half spectra of the n² real lines with
// x, y < n of an m×m×m grid, m the plan length: line (x, y) is
// src[(x·m+y)·m:][:m], and its HalfLen() coefficients go to
// dst[(y·n+x)·HalfLen():], so that row y of dst holds the lines of every
// x side by side. With n = 1 it is the transform of one line. Line
// l = x·n+y is transposed into column l of the rows of sc (length
// >= RealScratchLen()·n²), the n² lines are transformed side by side,
// and the result is transposed back.
//
// For even m each real line is packed into a half-length complex signal
// (z[j] = x[2j] + i·x[2j+1]), transformed with the half-length plan and
// unpacked — a real transform at roughly half the complex cost. Odd
// lengths fall back to a full complex transform.
func (p *Plan) forwardReal(dst []complex128, src []float64, n int, sc []complex128) {
	m, h, w := p.n, p.HalfLen(), n*n
	if p.half == nil {
		// Odd length: widen to complex and keep the first half spectrum.
		in, out := sc[:m*w], sc[m*w:2*m*w]
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				l := x*n + y
				for j, v := range src[(x*m+y)*m:][:m] {
					in[j*w+l] = complex(v, 0)
				}
			}
		}
		p.transform(out, in, w, w, false, sc[2*m*w:])
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				l, line := x*n+y, dst[(y*n+x)*h:][:h]
				for k := range line {
					line[k] = out[k*w+l]
				}
			}
		}
		return
	}
	hm := m / 2
	z, zf := sc[:hm*w], sc[hm*w:2*hm*w]
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			l, line := x*n+y, src[(x*m+y)*m:][:m]
			for j := 0; j < hm; j++ {
				z[j*w+l] = complex(line[2*j], line[2*j+1])
			}
		}
	}
	p.half.transform(zf, z, w, w, false, sc[2*hm*w:])
	// Unpack: with E/O the spectra of the even/odd samples,
	// E[k] = (Z[k]+conj(Z[hm-k]))/2, O[k] = -i(Z[k]-conj(Z[hm-k]))/2 and
	// X[k] = E[k] + w_m^k O[k] for k = 0..hm (indices mod hm).
	for k := 0; k <= hm; k++ {
		zk := zf[k%hm*w:][:w]
		zmk := zf[(hm-k)%hm*w:][:len(zk)]
		tw := p.w[k]
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				l := x*n + y
				a, b := zk[l], zmk[l]
				cz := complex(real(b), -imag(b))
				e := scale(a+cz, 0.5)
				o := scale(a-cz, 0.5)
				o = complex(imag(o), -real(o)) // -i * o
				dst[(y*n+x)*h+k] = e + tw*o
			}
		}
	}
}

// inverseReal rebuilds the n² real lines with x, y < n of an m×m×m grid
// (scaled by 1/m), m the plan length, from their half spectra: line
// (x, y) is dst[(x·m+y)·m:][:m], its spectrum src[(x·n+y)·HalfLen():].
// Every other line of dst is left untouched. sc has length
// >= RealScratchLen()·n².
func (p *Plan) inverseReal(dst []float64, src []complex128, n int, sc []complex128) {
	m, h, w := p.n, p.HalfLen(), n*n
	if p.half == nil {
		// Odd length: rebuild the full spectrum by symmetry and take the
		// real part of a complex inverse.
		full, out := sc[:m*w], sc[m*w:2*m*w]
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				l, line := x*n+y, src[(x*n+y)*h:][:h]
				for j, v := range line {
					full[j*w+l] = v
				}
				for j := h; j < m; j++ {
					v := line[m-j]
					full[j*w+l] = complex(real(v), -imag(v))
				}
			}
		}
		p.transform(out, full, w, w, true, sc[2*m*w:])
		inv := 1 / float64(m)
		for x := 0; x < n; x++ {
			for y := 0; y < n; y++ {
				l, line := x*n+y, dst[(x*m+y)*m:][:m]
				for j := range line {
					line[j] = real(out[j*w+l]) * inv
				}
			}
		}
		return
	}
	// Repack: Z[k] = E[k] + i·O[k] with E[k] = (X[k]+conj(X[hm-k]))/2 and
	// O[k] = w_m^{-k}(X[k]-conj(X[hm-k]))/2; the half-length inverse then
	// yields z[j] = x[2j] + i·x[2j+1] (its 1/hm scaling is exactly the 1/m
	// the full inverse needs).
	hm := m / 2
	zf, z := sc[:hm*w], sc[hm*w:2*hm*w]
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			l, line := x*n+y, src[(x*n+y)*h:][:h]
			for k, xk := range line[:hm] {
				xmk := line[hm-k]
				cx := complex(real(xmk), -imag(xmk))
				e := scale(xk+cx, 0.5)
				o := scale(xk-cx, 0.5) * p.winv[k]
				zf[k*w+l] = e + complex(-imag(o), real(o)) // e + i*o
			}
		}
	}
	p.half.transform(z, zf, w, w, true, sc[2*hm*w:])
	inv := 1 / float64(hm)
	for x := 0; x < n; x++ {
		for y := 0; y < n; y++ {
			l, line := x*n+y, dst[(x*m+y)*m:][:m]
			for j := 0; j < hm; j++ {
				v := z[j*w+l]
				line[2*j] = real(v) * inv
				line[2*j+1] = imag(v) * inv
			}
		}
	}
}

// transform computes the DFT of w lines at once (see rows): unscaled,
// with the negative exponent, or the positive one when inverse.
func (p *Plan) transform(dst, src []complex128, w, rs int, inverse bool, buf []complex128) {
	if inverse {
		p.rows(dst, src, w, rs, p.n, 1, 0, p.winv, 1, buf)
		return
	}
	p.rows(dst, src, w, rs, p.n, 1, 0, p.w, -1, buf)
}

// rows computes the n-point DFT of w lines at once. Row j of the input,
// element j of every line, is src[j*rs : j*rs+w]; row j of the output is
// dst[j*w : j*w+w]. Every butterfly is thus a loop along contiguous rows,
// with its twiddles loaded once per row. wstep is N/n where N is the plan
// length; depth indexes into the factor list; sign is -1 for the forward
// direction and +1 for the inverse (it orients the hardcoded butterflies;
// the matching root table tw is passed alongside); buf is gather scratch
// of length >= ScratchLen()·w for the generic combine of factors >= 7.
// dst and src must not overlap.
func (p *Plan) rows(dst, src []complex128, w, rs, n, wstep, depth int, tw []complex128, sign float64, buf []complex128) {
	switch n {
	case 1:
		copy(dst[:w], src[:w])
		return
	case 2, 3, 4, 5:
		butterflies(n, dst, w, src, rs, w, nil, sign)
		return
	}
	f := p.factors[depth]
	m := n / f
	if m == 1 {
		dft(dst, src, w, rs, n, wstep, tw)
		return
	}
	// Decimation in time: f interleaved sub-transforms of length m,
	// combined with f-point butterflies.
	for a := 0; a < f; a++ {
		p.rows(dst[a*m*w:(a+1)*m*w], src[a*rs:], w, rs*f, m, wstep*f, depth+1, tw, sign, buf)
	}
	if f > 5 {
		combineGeneric(dst, w, n, f, m, wstep, tw, buf)
		return
	}
	// The Cooley–Tukey recombination X[c+d*m] = Σ_a ω_f^{ad} (w_n^{ac} Y_a[c]),
	// in place on the rows c, m+c, … of the sub-transforms. Twiddle
	// indices a*c*wstep stay below the table length by construction
	// (a*c <= (f-1)(m-1) < n), so no modular reduction is needed.
	var t [4]complex128
	for c := 0; c < m; c++ {
		for a := 1; a < f; a++ {
			t[a-1] = tw[a*c*wstep]
		}
		row := dst[c*w:]
		butterflies(f, row, m*w, row, m*w, w, &t, sign)
	}
}

// muli returns i*sign*z.
func muli(z complex128, sign float64) complex128 {
	return complex(-sign*imag(z), sign*real(z))
}

// scale returns s*z for real s.
func scale(z complex128, s float64) complex128 {
	return complex(s*real(z), s*imag(z))
}

// butterflies applies the f-point DFT, f = 2..5, to each of w columns:
// the inputs are the rows in[a*is:][:w] and the outputs the rows
// out[d*os:][:w], a, d < f. At the recursion's leaves t is nil; in a
// combine the inputs x_a, a >= 1, are first twiddled to t[a-1]·x_a.
// in and out may be the same rows: each column is read in full before
// it is written. Both forms run the radix's one butterfly, bfly2 …
// bfly5; all but bfly5, which is over the inliner's budget, are inlined
// into the loops.
func butterflies(f int, out []complex128, os int, in []complex128, is, w int, t *[4]complex128, sign float64) {
	x0 := in[:w]
	x1, y0, y1 := in[is:][:len(x0)], out[:len(x0)], out[os:][:len(x0)]
	switch f {
	case 2:
		if t == nil {
			for l, v := range x0 {
				y0[l], y1[l] = bfly2(v, x1[l])
			}
			return
		}
		w1 := t[0]
		for l, v := range x0 {
			y0[l], y1[l] = bfly2(v, w1*x1[l])
		}
	case 3:
		x2, y2 := in[2*is:][:len(x0)], out[2*os:][:len(x0)]
		if t == nil {
			for l, v := range x0 {
				y0[l], y1[l], y2[l] = bfly3(v, x1[l], x2[l], sign)
			}
			return
		}
		w1, w2 := t[0], t[1]
		for l, v := range x0 {
			y0[l], y1[l], y2[l] = bfly3(v, w1*x1[l], w2*x2[l], sign)
		}
	case 4:
		x2, y2 := in[2*is:][:len(x0)], out[2*os:][:len(x0)]
		x3, y3 := in[3*is:][:len(x0)], out[3*os:][:len(x0)]
		if t == nil {
			for l, v := range x0 {
				y0[l], y1[l], y2[l], y3[l] = bfly4(v, x1[l], x2[l], x3[l], sign)
			}
			return
		}
		w1, w2, w3 := t[0], t[1], t[2]
		for l, v := range x0 {
			y0[l], y1[l], y2[l], y3[l] = bfly4(v, w1*x1[l], w2*x2[l], w3*x3[l], sign)
		}
	case 5:
		x2, y2 := in[2*is:][:len(x0)], out[2*os:][:len(x0)]
		x3, y3 := in[3*is:][:len(x0)], out[3*os:][:len(x0)]
		x4, y4 := in[4*is:][:len(x0)], out[4*os:][:len(x0)]
		if t == nil {
			for l, v := range x0 {
				y0[l], y1[l], y2[l], y3[l], y4[l] = bfly5(v, x1[l], x2[l], x3[l], x4[l], sign)
			}
			return
		}
		w1, w2, w3, w4 := t[0], t[1], t[2], t[3]
		for l, v := range x0 {
			y0[l], y1[l], y2[l], y3[l], y4[l] = bfly5(v, w1*x1[l], w2*x2[l], w3*x3[l], w4*x4[l], sign)
		}
	}
}

func bfly2(x0, x1 complex128) (complex128, complex128) {
	return x0 + x1, x0 - x1
}

const sin60 = 0.8660254037844386 // sin(π/3)

func bfly3(x0, x1, x2 complex128, sign float64) (complex128, complex128, complex128) {
	s := x1 + x2
	d := muli(scale(x1-x2, sin60), sign)
	u := x0 - scale(s, 0.5)
	return x0 + s, u + d, u - d
}

func bfly4(x0, x1, x2, x3 complex128, sign float64) (complex128, complex128, complex128, complex128) {
	a, b := x0+x2, x0-x2
	c, d := x1+x3, muli(x1-x3, sign)
	return a + c, b + d, a - c, b - d
}

// 5th roots of unity: cos/sin of 2π/5 and 4π/5.
const (
	cos5a = 0.30901699437494745
	cos5b = -0.8090169943749475
	sin5a = 0.9510565162951535
	sin5b = 0.5877852522924731
)

func bfly5(x0, x1, x2, x3, x4 complex128, sign float64) (complex128, complex128, complex128, complex128, complex128) {
	p1, m1 := x1+x4, x1-x4
	p2, m2 := x2+x3, x2-x3
	u1 := x0 + scale(p1, cos5a) + scale(p2, cos5b)
	u2 := x0 + scale(p1, cos5b) + scale(p2, cos5a)
	v1 := muli(scale(m1, sin5a)+scale(m2, sin5b), sign)
	v2 := muli(scale(m1, sin5b)-scale(m2, sin5a), sign)
	return x0 + p1 + p2, u1 + v1, u2 + v2, u2 - v2, u1 - v1
}

// dft is the direct transform of a prime length n >= 7.
func dft(dst, src []complex128, w, rs, n, wstep int, tw []complex128) {
	for k := 0; k < n; k++ {
		row := dst[k*w:][:w]
		clear(row)
		for j := 0; j < n; j++ {
			t := tw[(j*k%n)*wstep]
			sj := src[j*rs:][:len(row)]
			for l := range row {
				row[l] += sj[l] * t
			}
		}
	}
}

// combineGeneric is the fallback recombination for prime factors >= 7;
// g is gather scratch of length >= f·w.
func combineGeneric(dst []complex128, w, n, f, m, wstep int, tw, g []complex128) {
	g = g[:f*w]
	for c := 0; c < m; c++ {
		for a := 0; a < f; a++ {
			copy(g[a*w:(a+1)*w], dst[(a*m+c)*w:])
		}
		for d := 0; d < f; d++ {
			k := c + d*m
			row := dst[k*w:][:w]
			copy(row, g[:w])
			for a := 1; a < f; a++ {
				t := tw[(a*k%n)*wstep]
				ga := g[a*w:][:len(row)]
				for l := range row {
					row[l] += ga[l] * t
				}
			}
		}
	}
}

// NextSmooth returns the smallest 5-smooth integer (only prime factors
// 2, 3, 5) greater than or equal to n. The FMM picks convolution grid
// sizes with it so that every FFT factor has a fast butterfly.
func NextSmooth(n int) int {
	if n < 1 {
		return 1
	}
	for m := n; ; m++ {
		k := m
		for _, f := range []int{2, 3, 5} {
			for k%f == 0 {
				k /= f
			}
		}
		if k == 1 {
			return m
		}
	}
}

// Plan3 performs 3-D transforms on row-major data indexed [x][y][z]
// (z fastest). It is immutable and safe for concurrent use.
type Plan3 struct {
	nx, ny, nz int
	px, py, pz *Plan
}

// NewPlan3 creates a 3-D plan for an nx x ny x nz grid.
func NewPlan3(nx, ny, nz int) *Plan3 {
	p3 := &Plan3{nx: nx, ny: ny, nz: nz, px: NewPlan(nx)}
	p3.py = p3.px
	if ny != nx {
		p3.py = NewPlan(ny)
	}
	switch nz {
	case nx:
		p3.pz = p3.px
	case ny:
		p3.pz = p3.py
	default:
		p3.pz = NewPlan(nz)
	}
	return p3
}

// Size returns the total number of grid points nx*ny*nz.
func (p *Plan3) Size() int { return p.nx * p.ny * p.nz }

// Forward computes the in-place 3-D forward DFT of x (length Size).
func (p *Plan3) Forward(x []complex128) { p.apply(x, false) }

// Inverse computes the in-place 3-D inverse DFT of x, scaled by 1/Size.
func (p *Plan3) Inverse(x []complex128) { p.apply(x, true) }

func (p *Plan3) apply(x []complex128, inverse bool) {
	if len(x) != p.Size() {
		panic("fft: grid length does not match 3-D plan")
	}
	nyz := p.ny * p.nz
	sc := make([]complex128, max(p.nz+p.pz.scratch, (p.ny+p.py.scratch)*p.nz, (p.nx+p.px.scratch)*nyz))
	// Along z: each contiguous line on its own.
	for b := 0; b < p.nx*p.ny; b++ {
		p.pz.lines(x[b*p.nz:], 1, 1, inverse, sc)
	}
	// Along y: the nz lines of each x-plane side by side.
	for ix := 0; ix < p.nx; ix++ {
		p.py.lines(x[ix*nyz:], p.nz, p.nz, inverse, sc)
	}
	// Along x: all ny·nz lines side by side.
	p.px.lines(x, nyz, nyz, inverse, sc)
}

// Plan3R performs real-input 3-D transforms on a cubic m×m×m grid.
// The forward transform maps real row-major data indexed [x][y][z]
// (z fastest) to the half spectrum indexed [kx][ky][kz] with
// kz in [0, m/2+1): the z-dimension keeps only its independent Fourier
// lines (real input makes F[-kx,-ky,-kz] = conj(F[kx,ky,kz])), so a
// convolution pays ~half the Hadamard, storage and inverse-transform
// cost of the full complex grid. Multiplying two half spectra
// element-wise and inverse-transforming computes the circular
// convolution of the real inputs exactly. ForwardCorner and
// InverseCorner serve a zero-padded convolution, whose input and wanted
// output occupy only a leading corner of the grid: they skip the lines
// that are known zero or not wanted, with results bitwise equal to the
// full transforms.
//
// Every pass transforms all of its lines side by side, so that each
// butterfly is a loop along one row of them (see Plan.rows). The x pass
// finds its lines side by side in the half-spectrum grid: at each x, all
// m·k lines are contiguous. The z lines are contiguous along z, and the
// y lines of different x-planes are m·k apart, so those passes run on
// transposed copies in pooled scratch; the forward z pass writes its
// result straight into the rows the y pass reads.
//
// A Plan3R is immutable and safe for concurrent use (per-call work
// buffers are pooled internally).
type Plan3R struct {
	m, k int
	p    *Plan
	pool sync.Pool // *[]complex128 row scratch for one in-flight transform
}

// NewPlan3R creates a real-input 3-D plan for an m×m×m grid.
func NewPlan3R(m int) *Plan3R {
	p3 := &Plan3R{m: m, k: m/2 + 1, p: NewPlan(m)}
	// One transform's scratch: the y pass's input rows (up to m²·k), then
	// either its output rows and gather scratch or the z pass's scratch.
	size := m*m*p3.k + max((m+p3.p.scratch)*m*p3.k, p3.p.RealScratchLen()*m*m)
	p3.pool.New = func() any {
		sc := make([]complex128, size)
		return &sc
	}
	return p3
}

// Edge returns the grid edge length m.
func (p *Plan3R) Edge() int { return p.m }

// HalfLen returns the number of stored z-frequency lines, m/2 + 1.
func (p *Plan3R) HalfLen() int { return p.k }

// RealLen returns the real-grid length m³.
func (p *Plan3R) RealLen() int { return p.m * p.m * p.m }

// FreqLen returns the half-spectrum length m·m·(m/2+1).
func (p *Plan3R) FreqLen() int { return p.m * p.m * p.k }

// Forward computes the half spectrum of the real grid src (length
// RealLen) into dst (length FreqLen). src is read-only.
func (p *Plan3R) Forward(dst []complex128, src []float64) { p.ForwardCorner(dst, src, p.m) }

// ForwardCorner is Forward for a grid that is zero outside its leading
// n×n×n corner, bitwise equal to Forward of that grid. Only the n² z-lines
// with x, y < n are read (each in full, so their entries z >= n must be
// zero); the rest of src is taken as zero and may hold anything. A zero
// z-line transforms to exact zeros, so those lines are written as zeros,
// and the y pass over the all-zero planes x >= n is skipped: the M2L
// embeds a p³ density in an M³ grid with M ≈ 2p, so the z and y passes
// shrink to about a quarter and a half. 1 <= n <= m.
//
// Forward's butterflies can leave -0 where ForwardCorner writes +0, so
// the bitwise equality is checked rather than derived: for every 5-smooth
// m through 32 (the M2L grids up to degree 16) and every n.
func (p *Plan3R) ForwardCorner(dst []complex128, src []float64, n int) {
	p.check(len(dst), len(src), n)
	m, k, pl := p.m, p.k, p.p
	sp := p.pool.Get().(*[]complex128)
	defer p.pool.Put(sp)
	sc := *sp
	// Along z, real-to-complex over the n² lines through the corner,
	// straight into the y pass's input: row y of t holds the n·k lines of
	// the planes x < n. The lines y >= n are zero. t lies in the first
	// m²·k values of sc, which the x pass's input g reuses.
	mk, w := m*k, n*k
	t, out := sc[:m*w], sc[m*mk:m*mk+m*w]
	pl.forwardReal(t, src, n, sc[m*mk:])
	clear(t[n*w:])
	// Along y on the planes x < n, scattered into g, the grid the x pass
	// reads; its planes x >= n are zero.
	pl.transform(out, t, w, w, false, sc[m*mk+m*w:])
	g := sc[:m*mk]
	for x := 0; x < n; x++ {
		for y := 0; y < m; y++ {
			copy(g[(x*m+y)*k:][:k], out[y*w+x*k:])
		}
	}
	clear(g[n*mk:])
	// Along x: all m·k lines side by side, into dst.
	pl.transform(dst, g, mk, mk, false, sc[m*mk:])
}

// Inverse computes the real inverse transform (scaled by 1/m³) of the
// half spectrum src into dst, so that Inverse(Forward(x)) == x.
// src is used as workspace and is garbage afterwards.
func (p *Plan3R) Inverse(dst []float64, src []complex128) { p.InverseCorner(dst, src, p.m) }

// InverseCorner is Inverse restricted to the leading n×n×n corner of dst:
// it writes the n² z-lines with x, y < n, bitwise equal to Inverse there,
// and leaves the rest of dst untouched. The y pass runs in full (every
// x-line reads every plane), the x pass only for y < n and the
// complex-to-real z pass only for the n² lines, and of each complex pass
// only the lines read on are scaled by 1/m. Transforming x before y
// would let the y pass shrink too, but changes the rounding of the result.
// src is used as workspace and is garbage afterwards. 1 <= n <= m.
func (p *Plan3R) InverseCorner(dst []float64, src []complex128, n int) {
	p.check(len(src), len(dst), n)
	m, k, pl := p.m, p.k, p.p
	sp := p.pool.Get().(*[]complex128)
	defer p.pool.Put(sp)
	sc := *sp
	// Along y: gather the k lines of every x-plane into the rows of t,
	// m·k lines side by side.
	mk, w := m*k, n*k
	t, out := sc[:m*mk], sc[m*mk:2*m*mk]
	for x := 0; x < m; x++ {
		for y := 0; y < m; y++ {
			copy(t[y*mk+x*k:][:k], src[(x*m+y)*k:][:k])
		}
	}
	pl.transform(out, t, mk, mk, true, sc[2*m*mk:])
	// Only the rows y < n are read on: scaled, they go back into src, the
	// n·k lines of each x-plane side by side.
	inv := complex(1/float64(m), 0)
	for x := 0; x < m; x++ {
		scaleRows(src[x*w:], k, out[x*k:], mk, k, n, inv)
	}
	// Along x on those lines, of which the z pass reads the planes x < n.
	xo := sc[:m*w]
	pl.transform(xo, src, w, w, true, sc[m*w:])
	scaleRows(xo, w, xo, w, w, n, inv)
	// Along z: complex-to-real reconstruction via conjugate symmetry.
	pl.inverseReal(dst, xo, n, sc[m*w:])
}

func (p *Plan3R) check(freqLen, realLen, n int) {
	if freqLen != p.FreqLen() || realLen != p.RealLen() {
		panic("fft: grid length does not match 3-D real plan")
	}
	if n < 1 || n > p.m {
		panic("fft: corner edge out of range for 3-D real plan")
	}
}

// Convolve3 returns the circular convolution c[t] = Σ_s a[(t-s) mod n] b[s]
// of two cubic grids with side n, computed by direct summation. It is the
// reference implementation used to validate the Fourier-space path.
func Convolve3(a, b []complex128, n int) []complex128 {
	c := make([]complex128, n*n*n)
	idx := func(x, y, z int) int { return (x*n+y)*n + z }
	for tx := 0; tx < n; tx++ {
		for ty := 0; ty < n; ty++ {
			for tz := 0; tz < n; tz++ {
				s := complex(0, 0)
				for sx := 0; sx < n; sx++ {
					for sy := 0; sy < n; sy++ {
						for sz := 0; sz < n; sz++ {
							s += a[idx(mod(tx-sx, n), mod(ty-sy, n), mod(tz-sz, n))] * b[idx(sx, sy, sz)]
						}
					}
				}
				c[idx(tx, ty, tz)] = s
			}
		}
	}
	return c
}

func mod(a, n int) int {
	a %= n
	if a < 0 {
		a += n
	}
	return a
}
