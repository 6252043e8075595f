// Package fft implements the real-input 3-D Fourier transforms of the
// FMM's M2L translations. It replaces the FFTW dependency of the paper's
// implementation; the FMM uses it to turn M2L translations into circular
// convolutions over the regular equivalent-surface lattice (paper
// Section 1: "the multipole-to-local translations are accelerated using
// local FFTs").
//
// The FMM always chooses 5-smooth grid edges (NextSmooth), and those are
// the only lengths the package transforms: a plan of any other length
// panics when it is made. The transform is a mixed-radix Cooley–Tukey
// decomposition on hardcoded radix-2/3/4/5 butterflies (twiddles read
// straight from the precomputed root table, once per row, no modular
// index arithmetic) that runs many lines at once: the lines sit side by
// side in rows, row j holding element j of every line, and every
// butterfly is a loop along a row, so a pass of a 3-D transform is one
// recursion over all of its lines rather than one per line. Each element
// keeps the expression, operand order and rounding of a one-line
// transform.
//
// Densities and kernel tensors in the FMM are purely real, so the one
// exported transform, Plan3R, is real-to-complex: conjugate symmetry
// means only ⌊n/2⌋+1 of the n Fourier coefficients of a line are
// independent, halving the storage, Hadamard and inverse-transform work
// of the convolution.
package fft

import (
	"math"
	"sync"
)

// plan holds the precomputed root table for transforms of one 5-smooth
// length. A plan is immutable after creation and safe for concurrent use.
type plan struct {
	n       int
	w       []complex128 // w[j] = exp(-2πi j/n)
	winv    []complex128 // winv[j] = exp(+2πi j/n)
	factors []int        // mixed-radix factorization of n (4s first, then 2, 3, 5)
	half    *plan        // length n/2 companion for the even-length real transforms
}

// newPlan builds the root tables and factorization for a 5-smooth length
// n >= 1, with the length n/2 companion the packed real transforms use
// when n is even (that companion gets its own, which nothing reads; at
// the FMM's lengths they are a few hundred bytes). Any other length
// panics.
func newPlan(n int) *plan {
	if NextSmooth(n) != n {
		panic("fft: length must be 5-smooth and >= 1")
	}
	p := &plan{n: n, w: make([]complex128, n), winv: make([]complex128, n), factors: factorize(n)}
	for j := 0; j < n; j++ {
		s, c := math.Sincos(-2 * math.Pi * float64(j) / float64(n))
		p.w[j] = complex(c, s)
		p.winv[j] = complex(c, -s)
	}
	if n%2 == 0 {
		p.half = newPlan(n / 2)
	}
	return p
}

// factorize returns the mixed-radix factor list of a 5-smooth n: radix-4
// stages first (fewer, wider butterflies than radix-2 pairs), then at most
// one 2, then 3s and 5s.
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
	return fs
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
// src[(x·m+y)·m:][:m], and its h = m/2+1 coefficients go to
// dst[(y·n+x)·h:], so that row y of dst holds the lines of every x side
// by side. With n = 1 it is the transform of one line. Line l = x·n+y is
// transposed into column l of the rows of sc (length >= m·n² for even m,
// 2m·n² for odd m), the n² lines are transformed side by side, and the
// result is transposed back.
//
// For even m each real line is packed into a half-length complex signal
// (z[j] = x[2j] + i·x[2j+1]), transformed with the half-length plan and
// unpacked — a real transform at roughly half the complex cost. Odd
// lengths fall back to a full complex transform.
func (p *plan) forwardReal(dst []complex128, src []float64, n int, sc []complex128) {
	m, h, w := p.n, p.n/2+1, n*n
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
		p.transform(out, in, w, w, false)
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
	p.half.transform(zf, z, w, w, false)
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
// (x, y) is dst[(x·m+y)·m:][:m], its spectrum src[(x·n+y)·h:] with
// h = m/2+1. Every other line of dst is left untouched. sc has the length
// forwardReal's has.
func (p *plan) inverseReal(dst []float64, src []complex128, n int, sc []complex128) {
	m, h, w := p.n, p.n/2+1, n*n
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
		p.transform(out, full, w, w, true)
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
	p.half.transform(z, zf, w, w, true)
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
func (p *plan) transform(dst, src []complex128, w, rs int, inverse bool) {
	if inverse {
		p.rows(dst, src, w, rs, p.n, 1, 0, p.winv, 1)
		return
	}
	p.rows(dst, src, w, rs, p.n, 1, 0, p.w, -1)
}

// rows computes the n-point DFT of w lines at once. Row j of the input,
// element j of every line, is src[j*rs : j*rs+w]; row j of the output is
// dst[j*w : j*w+w]. Every butterfly is thus a loop along contiguous rows,
// with its twiddles loaded once per row. wstep is N/n where N is the plan
// length; depth indexes into the factor list; sign is -1 for the forward
// direction and +1 for the inverse (it orients the butterflies; the
// matching root table tw is passed alongside). dst and src must not
// overlap.
func (p *plan) rows(dst, src []complex128, w, rs, n, wstep, depth int, tw []complex128, sign float64) {
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
	// Decimation in time: f interleaved sub-transforms of length m,
	// combined with f-point butterflies.
	for a := 0; a < f; a++ {
		p.rows(dst[a*m*w:(a+1)*m*w], src[a*rs:], w, rs*f, m, wstep*f, depth+1, tw, sign)
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
// it is written. Both forms run the radix's one butterfly: bfly2 …
// bfly4, which inline into the loops, and the radix-5 arithmetic written
// into them.
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
		// The radix-5 butterfly is written out in both loops: as a
		// function it is over the inliner's budget, and every column
		// would pay a call. Both loops compute the same expressions in
		// the same order, so the leaf and the combine round alike.
		x2, y2 := in[2*is:][:len(x0)], out[2*os:][:len(x0)]
		x3, y3 := in[3*is:][:len(x0)], out[3*os:][:len(x0)]
		x4, y4 := in[4*is:][:len(x0)], out[4*os:][:len(x0)]
		if t == nil {
			for l, v := range x0 {
				p1, m1 := x1[l]+x4[l], x1[l]-x4[l]
				p2, m2 := x2[l]+x3[l], x2[l]-x3[l]
				u1 := v + scale(p1, cos5a) + scale(p2, cos5b)
				u2 := v + scale(p1, cos5b) + scale(p2, cos5a)
				v1 := muli(scale(m1, sin5a)+scale(m2, sin5b), sign)
				v2 := muli(scale(m1, sin5b)-scale(m2, sin5a), sign)
				y0[l], y1[l], y2[l], y3[l], y4[l] = v+p1+p2, u1+v1, u2+v2, u2-v2, u1-v1
			}
			return
		}
		w1, w2, w3, w4 := t[0], t[1], t[2], t[3]
		for l, v := range x0 {
			a1, a2, a3, a4 := w1*x1[l], w2*x2[l], w3*x3[l], w4*x4[l]
			p1, m1 := a1+a4, a1-a4
			p2, m2 := a2+a3, a2-a3
			u1 := v + scale(p1, cos5a) + scale(p2, cos5b)
			u2 := v + scale(p1, cos5b) + scale(p2, cos5a)
			v1 := muli(scale(m1, sin5a)+scale(m2, sin5b), sign)
			v2 := muli(scale(m1, sin5b)-scale(m2, sin5a), sign)
			y0[l], y1[l], y2[l], y3[l], y4[l] = v+p1+p2, u1+v1, u2+v2, u2-v2, u1-v1
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

// NextSmooth returns the smallest 5-smooth integer (only prime factors
// 2, 3, 5) greater than or equal to n, and 1 for n < 1. The FMM picks
// its convolution grid edges with it; they are the only lengths a plan
// accepts.
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
// butterfly is a loop along one row of them (see plan.rows). The x pass
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
	p    *plan
	pool sync.Pool // *[]complex128 row scratch for one in-flight transform
}

// NewPlan3R creates a real-input 3-D plan for an m×m×m grid. m must be
// 5-smooth (NextSmooth(m) == m); any other edge panics.
func NewPlan3R(m int) *Plan3R {
	p3 := &Plan3R{m: m, k: m/2 + 1, p: newPlan(m)}
	// One transform's scratch: the y pass's input rows (up to m²·k), then
	// either its output rows or the z pass's scratch, m values per line
	// through the corner for even m (two packed half lines) and 2m for odd
	// m (a widened line and its transform).
	zs := m
	if m%2 == 1 {
		zs = 2 * m
	}
	size := m*m*p3.k + max(m*m*p3.k, zs*m*m)
	p3.pool.New = func() any {
		sc := make([]complex128, size)
		return &sc
	}
	return p3
}

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
	pl.transform(out, t, w, w, false)
	g := sc[:m*mk]
	for x := 0; x < n; x++ {
		for y := 0; y < m; y++ {
			copy(g[(x*m+y)*k:][:k], out[y*w+x*k:])
		}
	}
	clear(g[n*mk:])
	// Along x: all m·k lines side by side, into dst.
	pl.transform(dst, g, mk, mk, false)
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
	pl.transform(out, t, mk, mk, true)
	// Only the rows y < n are read on: scaled, they go back into src, the
	// n·k lines of each x-plane side by side.
	inv := complex(1/float64(m), 0)
	for x := 0; x < m; x++ {
		scaleRows(src[x*w:], k, out[x*k:], mk, k, n, inv)
	}
	// Along x on those lines, of which the z pass reads the planes x < n.
	xo := sc[:m*w]
	pl.transform(xo, src, w, w, true)
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
