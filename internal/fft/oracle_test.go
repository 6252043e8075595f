package fft

// This file holds the test-side entry points of the engine: the
// width-one 1-D transforms the property tests drive, and the complex 3-D
// transform and direct convolution that are the references for Plan3R.

// forward computes dst = DFT(src) (negative exponent, unscaled) with the
// row engine at a width of one line. dst and src must not alias.
func forward(p *plan, dst, src []complex128) { p.transform(dst, src, 1, 1, false) }

// inverse computes dst = IDFT(src), scaled by 1/n so that
// inverse(forward(x)) == x. dst and src must not alias.
func inverse(p *plan, dst, src []complex128) {
	p.transform(dst, src, 1, 1, true)
	scaleRows(dst, 0, dst, 0, p.n, 1, complex(1/float64(p.n), 0))
}

// realScratchLen is the scratch one line of forwardReal or inverseReal
// needs: two packed half lines at even n, a widened line and its
// transform at odd n.
func realScratchLen(p *plan) int {
	if p.half != nil {
		return p.n
	}
	return 2 * p.n
}

// forwardReal1 computes the first n/2+1 coefficients of the DFT of the
// real signal src into dst.
func forwardReal1(p *plan, dst []complex128, src []float64) {
	p.forwardReal(dst, src, 1, make([]complex128, realScratchLen(p)))
}

// inverseReal1 computes the real inverse DFT (scaled by 1/n) of the
// conjugate-symmetric spectrum given by its first n/2+1 coefficients src.
func inverseReal1(p *plan, dst []float64, src []complex128) {
	p.inverseReal(dst, src, 1, make([]complex128, realScratchLen(p)))
}

// Plan3 performs complex 3-D transforms on row-major data indexed
// [x][y][z] (z fastest): the full-spectrum reference for Plan3R.
type Plan3 struct {
	nx, ny, nz int
	px, py, pz *plan
}

// NewPlan3 creates a 3-D plan for an nx x ny x nz grid.
func NewPlan3(nx, ny, nz int) *Plan3 {
	return &Plan3{nx: nx, ny: ny, nz: nz, px: newPlan(nx), py: newPlan(ny), pz: newPlan(nz)}
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
	sc := make([]complex128, max(p.nz, p.ny*p.nz, p.nx*nyz))
	// Along z: each contiguous line on its own.
	for b := 0; b < p.nx*p.ny; b++ {
		lines(p.pz, x[b*p.nz:], 1, 1, inverse, sc)
	}
	// Along y: the nz lines of each x-plane side by side.
	for ix := 0; ix < p.nx; ix++ {
		lines(p.py, x[ix*nyz:], p.nz, p.nz, inverse, sc)
	}
	// Along x: all ny·nz lines side by side.
	lines(p.px, x, nyz, nyz, inverse, sc)
}

// lines transforms, in place, w lines of g that sit side by side:
// element j of line l is g[j*rs+l]. The transform lands in the first n·w
// values of sc and is copied back (scaled by 1/n when inverse).
func lines(p *plan, g []complex128, w, rs int, inverse bool, sc []complex128) {
	n := p.n
	out := sc[:n*w]
	p.transform(out, g, w, rs, inverse)
	if inverse {
		scaleRows(g, rs, out, w, w, n, complex(1/float64(n), 0))
		return
	}
	for j := 0; j < n; j++ {
		copy(g[j*rs:][:w], out[j*w:])
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
