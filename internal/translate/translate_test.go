package translate

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fft"
	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/surface"
)

// testKernels returns the paper's three kernels.
func testKernels() []kernels.Kernel {
	return []kernels.Kernel{kernels.Laplace{}, kernels.NewModLaplace(1), kernels.NewStokes(1)}
}

// randomInBox draws n points uniformly inside the box (center c, half-width r).
func randomInBox(rng *rand.Rand, c [3]float64, r float64, n int) []float64 {
	pts := make([]float64, 3*n)
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			pts[3*i+d] = c[d] + r*(2*rng.Float64()-1)
		}
	}
	return pts
}

func relErr(got, want []float64) float64 {
	num, den := 0.0, 0.0
	for i := range got {
		num += (got[i] - want[i]) * (got[i] - want[i])
		den += want[i] * want[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}

// p2p accumulates one density vector's direct interaction into pot.
func p2p(k kernels.Kernel, trg, src, den, pot []float64) {
	kernels.P2P(k, trg, src, [][]float64{den}, [][]float64{pot}, nil)
}

// upwardDensity builds a box's upward equivalent density from sources via
// S2M: evaluate the upward check potential, then invert.
func upwardDensity(s *Set, level int, c [3]float64, src, den []float64) []float64 {
	r := s.BoxHalfWidth(level)
	uc := s.UpwardCheckPoints(c, r, nil)
	check := make([]float64, s.CheckCount())
	p2p(s.Kern, uc, src, den, check)
	phi := make([]float64, s.EquivCount())
	s.UpwardPinv(level).Apply(phi, check, 1)
	return phi
}

// TestS2MRepresentsFarField is the core kernel-independence claim
// (equation 2.1): the upward equivalent density reproduces the sources'
// potential everywhere in the far range.
func TestS2MRepresentsFarField(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range testKernels() {
		for _, p := range []int{6, 8} {
			if p == 8 && k.SourceDim() > 1 {
				continue // the one-sided Jacobi SVD is too slow at 888x888 for a unit test
			}
			s, err := NewSet(k, p, 0.5, 0)
			if err != nil {
				t.Fatal(err)
			}
			level := 1
			r := s.BoxHalfWidth(level) // 0.25
			c := [3]float64{0.1, -0.05, 0.2}
			src := randomInBox(rng, c, r, 40)
			den := make([]float64, 40*k.SourceDim())
			for i := range den {
				den[i] = rng.NormFloat64()
			}
			phi := upwardDensity(s, level, c, src, den)
			// Evaluate at far points (outside the near range 3r).
			far := []float64{
				c[0] + 5*r, c[1], c[2],
				c[0] - 4*r, c[1] + 4*r, c[2] - 3.5*r,
				c[0], c[1], c[2] + 8*r,
			}
			want := make([]float64, 3*k.TargetDim())
			p2p(k, far, src, den, want)
			got := make([]float64, 3*k.TargetDim())
			ue := s.UpwardEquivPoints(c, r, nil)
			p2p(k, far, ue, phi, got)
			tol := 1e-3
			if p == 8 {
				tol = 1e-5
			}
			if e := relErr(got, want); e > tol {
				t.Errorf("%s p=%d: far-field error %v > %v", k.Name(), p, e, tol)
			}
		}
	}
}

// TestM2MPreservesFarField verifies equation (2.3): translating a child's
// equivalent density to the parent keeps the far field.
func TestM2MPreservesFarField(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, k := range testKernels() {
		s, err := NewSet(k, 6, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		parentLevel := 2
		rp := s.BoxHalfWidth(parentLevel)
		pc := [3]float64{0.3, 0.3, -0.3}
		octant := 5
		cc := childCenter(octant, rp)
		childC := [3]float64{pc[0] + cc[0], pc[1] + cc[1], pc[2] + cc[2]}
		src := randomInBox(rng, childC, rp/2, 30)
		den := make([]float64, 30*k.SourceDim())
		for i := range den {
			den[i] = rng.NormFloat64()
		}
		phiChild := upwardDensity(s, parentLevel+1, childC, src, den)
		// M2M: evaluate child density on parent's UC, invert.
		check := make([]float64, s.CheckCount())
		s.M2M(parentLevel, octant).Apply(check, phiChild, 1)
		phiParent := make([]float64, s.EquivCount())
		s.UpwardPinv(parentLevel).Apply(phiParent, check, 1)
		far := []float64{pc[0] + 7*rp, pc[1] - 5*rp, pc[2]}
		want := make([]float64, k.TargetDim())
		p2p(k, far, src, den, want)
		got := make([]float64, k.TargetDim())
		ue := s.UpwardEquivPoints(pc, rp, nil)
		p2p(k, far, ue, phiParent, got)
		if e := relErr(got, want); e > 5e-4 {
			t.Errorf("%s: M2M far-field error %v", k.Name(), e)
		}
	}
}

// applyM2LDirect is the dense M2L reference: the kernel matrix from a
// source box's UE surface (at the origin) to the DC surface of the target
// box at offset k (center 2r·k), both at the level's own half-width, applied
// to the source's upward density. It is built from the real geometry, so
// it does not share the homogeneous rescaling (scaleFor) of the path it
// checks.
func applyM2LDirect(s *Set, level int, k [3]int, phi []float64) []float64 {
	r := s.BoxHalfWidth(level)
	ct := [3]float64{2 * r * float64(k[0]), 2 * r * float64(k[1]), 2 * r * float64(k[2])}
	m := linalg.NewDense(s.CheckCount(), s.EquivCount())
	kernels.Matrix(s.Kern, s.DownwardCheckPoints(ct, r, nil), s.UpwardEquivPoints([3]float64{}, r, nil), m.Data)
	check := make([]float64, s.CheckCount())
	m.MulAddCols(check, phi, 1, 1)
	return check
}

// TestM2LThenDownwardReproducesPotential checks equation (2.4) end to
// end: M2L + downward inversion + evaluation at interior targets matches
// the direct interaction.
func TestM2LThenDownwardReproducesPotential(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, k := range testKernels() {
		s, err := NewSet(k, 6, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		level := 3
		r := s.BoxHalfWidth(level)
		srcC := [3]float64{0, 0, 0}
		off := [3]int{3, -2, 0} // a V-list offset
		trgC := [3]float64{2 * r * float64(off[0]), 2 * r * float64(off[1]), 2 * r * float64(off[2])}
		src := randomInBox(rng, srcC, r, 25)
		den := make([]float64, 25*k.SourceDim())
		for i := range den {
			den[i] = rng.NormFloat64()
		}
		phiU := upwardDensity(s, level, srcC, src, den)
		check := applyM2LDirect(s, level, off, phiU)
		phiD := make([]float64, s.EquivCount())
		s.DownwardPinv(level).Apply(phiD, check, 1)
		trg := randomInBox(rng, trgC, 0.9*r, 10)
		want := make([]float64, 10*k.TargetDim())
		p2p(k, trg, src, den, want)
		got := make([]float64, 10*k.TargetDim())
		de := s.DownwardEquivPoints(trgC, r, nil)
		p2p(k, trg, de, phiD, got)
		if e := relErr(got, want); e > 3e-3 {
			t.Errorf("%s: M2L+L2T error %v", k.Name(), e)
		}
	}
}

// TestL2LPreservesInteriorField checks equation (2.5): passing the
// downward density to a child keeps the interior potential.
func TestL2LPreservesInteriorField(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, k := range testKernels() {
		s, err := NewSet(k, 6, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		level := 2
		r := s.BoxHalfWidth(level)
		trgC := [3]float64{0, 0, 0}
		// Far sources, outside the near range of the parent target box.
		src := randomInBox(rng, [3]float64{8 * r, 2 * r, -5 * r}, r, 30)
		den := make([]float64, 30*k.SourceDim())
		for i := range den {
			den[i] = rng.NormFloat64()
		}
		// Build the parent's downward density directly from the far
		// sources (the S2L path used by the X list): evaluate the DC
		// check potential, invert.
		dc := s.DownwardCheckPoints(trgC, r, nil)
		check := make([]float64, s.CheckCount())
		p2p(k, dc, src, den, check)
		phiParent := make([]float64, s.EquivCount())
		s.DownwardPinv(level).Apply(phiParent, check, 1)
		// L2L to child octant 2.
		octant := 2
		cc := childCenter(octant, r)
		childC := [3]float64{trgC[0] + cc[0], trgC[1] + cc[1], trgC[2] + cc[2]}
		childCheck := make([]float64, s.CheckCount())
		s.L2L(level, octant).Apply(childCheck, phiParent, 1)
		phiChild := make([]float64, s.EquivCount())
		s.DownwardPinv(level+1).Apply(phiChild, childCheck, 1)
		trg := randomInBox(rng, childC, 0.9*r/2, 8)
		want := make([]float64, 8*k.TargetDim())
		p2p(k, trg, src, den, want)
		got := make([]float64, 8*k.TargetDim())
		de := s.DownwardEquivPoints(childC, r/2, nil)
		p2p(k, trg, de, phiChild, got)
		if e := relErr(got, want); e > 3e-3 {
			t.Errorf("%s: L2L interior error %v", k.Name(), e)
		}
	}
}

// forward1 transforms one density vector into its source grids (the
// batch layout at nq=1).
func forward1(f *FFTM2L, phi []float64) []complex128 {
	src := make([]complex128, f.set.Kern.SourceDim()*f.GridLen())
	f.ForwardDensityBatch(phi, 1, src)
	return src
}

// newAcc1 returns a zeroed accumulator for one right-hand side.
func newAcc1(f *FFTM2L) []complex128 {
	return make([]complex128, f.set.Kern.TargetDim()*f.GridLen())
}

// TestFFTM2LMatchesDense: the Fourier path must reproduce the dense M2L
// translation to near machine precision for every kernel and a sample of
// V-list offsets.
func TestFFTM2LMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	offsets := [][3]int{
		{2, 0, 0}, {-2, 0, 0}, {3, 3, 3}, {-3, 2, -2}, {0, 2, -3}, {2, -2, 2}, {-2, -3, 0},
	}
	for _, k := range testKernels() {
		for _, level := range []int{2, 4} {
			s, err := NewSet(k, 6, 0.7, 0)
			if err != nil {
				t.Fatal(err)
			}
			f := NewFFTM2L(s)
			phi := make([]float64, s.EquivCount())
			for i := range phi {
				phi[i] = rng.NormFloat64()
			}
			src := forward1(f, phi)
			for _, off := range offsets {
				want := applyM2LDirect(s, level, off, phi)
				acc := newAcc1(f)
				f.AccumulateBatch(acc, src, 1, level, off)
				got := make([]float64, s.CheckCount())
				f.ExtractGrids(acc, level, got)
				scale := 0.0
				for _, v := range want {
					if a := math.Abs(v); a > scale {
						scale = a
					}
				}
				for i := range got {
					if math.Abs(got[i]-want[i]) > 1e-11*(scale+1) {
						t.Fatalf("%s level=%d off=%v: FFT M2L mismatch at %d: %v vs %v",
							k.Name(), level, off, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestFFTM2LAccumulatesMultipleSources: Fourier-space accumulation over
// several source boxes must equal the sum of dense translations.
func TestFFTM2LAccumulatesMultipleSources(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	k := kernels.Laplace{}
	s, _ := NewSet(k, 6, 0.5, 0)
	f := NewFFTM2L(s)
	level := 3
	offsets := [][3]int{{2, 1, 0}, {-3, 0, 2}, {0, -2, 0}}
	acc := newAcc1(f)
	want := make([]float64, s.CheckCount())
	for _, off := range offsets {
		phi := make([]float64, s.EquivCount())
		for i := range phi {
			phi[i] = rng.NormFloat64()
		}
		f.AccumulateBatch(acc, forward1(f, phi), 1, level, off)
		for i, v := range applyM2LDirect(s, level, off, phi) {
			want[i] += v
		}
	}
	got := make([]float64, s.CheckCount())
	f.ExtractGrids(acc, level, got)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-11 {
			t.Fatalf("accumulated FFT M2L mismatch at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestFFTM2LHalfSpectrumMatchesFullSpectrum: the r2c backend must
// reproduce the circular convolution it stands for to ~1e-12. The
// reference builds the kernel tensor on the M³ grid as the translation
// does, and convolves it with the density in real space, summing directly
// over the density's p³ support at every surface point: no transform, so
// it does not depend on the package under test.
func TestFFTM2LHalfSpectrumMatchesFullSpectrum(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, k := range testKernels() {
		s, err := NewSet(k, 6, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		f := NewFFTM2L(s)
		level := 3
		off := [3]int{-3, 2, 0}
		sd, td := k.SourceDim(), k.TargetDim()
		phi := make([]float64, s.EquivCount())
		for i := range phi {
			phi[i] = rng.NormFloat64()
		}

		// Half-spectrum path under test.
		acc := newAcc1(f)
		f.AccumulateBatch(acc, forward1(f, phi), 1, level, off)
		got := make([]float64, s.CheckCount())
		f.ExtractGrids(acc, level, got)

		// Real-space reference: tensor component c on the M³ grid at
		// tensor[c*m³:], the density of component b on the p³ support at
		// dens[b*p³:].
		p, m := s.P, f.M
		m3, p3 := m*m*m, p*p*p
		key, escale, _ := s.scaleFor(level)
		h := surface.Spacing(p, s.entry(key).key.radius)
		tensor := make([]float64, td*sd*m3)
		block := make([]float64, td*sd)
		for dx := -(p - 1); dx <= p-1; dx++ {
			for dy := -(p - 1); dy <= p-1; dy++ {
				for dz := -(p - 1); dz <= p-1; dz++ {
					k.Eval(
						h*float64(dx+(p-2)*off[0]),
						h*float64(dy+(p-2)*off[1]),
						h*float64(dz+(p-2)*off[2]),
						block,
					)
					idx := (wrap(dx, m)*m+wrap(dy, m))*m + wrap(dz, m)
					for c, v := range block {
						tensor[c*m3+idx] = v
					}
				}
			}
		}
		dens := make([]float64, sd*p3)
		for si, vi := range s.Surf.VolIdx {
			for b := 0; b < sd; b++ {
				dens[b*p3+vi] = phi[si*sd+b]
			}
		}
		want := make([]float64, s.CheckCount())
		for ti, tv := range s.Surf.VolIdx {
			tx, ty, tz := tv/(p*p), tv/p%p, tv%p
			for a := 0; a < td; a++ {
				sum := 0.0
				for b := 0; b < sd; b++ {
					tg, db := tensor[(a*sd+b)*m3:][:m3], dens[b*p3:][:p3]
					for sv, d := range db {
						sx, sy, sz := sv/(p*p), sv/p%p, sv%p
						sum += tg[(wrap(tx-sx, m)*m+wrap(ty-sy, m))*m+wrap(tz-sz, m)] * d
					}
				}
				want[ti*td+a] = escale * sum
			}
		}

		scale := 0.0
		for _, v := range want {
			if a := math.Abs(v); a > scale {
				scale = a
			}
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12*(scale+1) {
				t.Fatalf("%s: half spectrum vs real-space convolution mismatch at %d: %v vs %v",
					k.Name(), i, got[i], want[i])
			}
		}
	}
}

// TestFFTM2LBuildsForEveryDegree: the FFT grid edge M = NextSmooth(2p−1)
// is 5-smooth for every degree the service admits, so NewFFTM2L builds
// from 1 to 16; the fft package makes plans of no other length. Degrees 1
// and 2 have no surface (NewSet rejects them), so for those the row builds
// the grid plan NewFFTM2L would share.
func TestFFTM2LBuildsForEveryDegree(t *testing.T) {
	for p := 1; p <= 16; p++ {
		m := fft.NextSmooth(2*p - 1)
		if p < 3 {
			if g := gridPlanFor(m); g.plan.FreqLen() != m*m*(m/2+1) {
				t.Errorf("p=%d: grid plan of edge %d holds %d coefficients", p, m, g.plan.FreqLen())
			}
			continue
		}
		s, err := NewSet(kernels.Laplace{}, p, 1, 0)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if f := NewFFTM2L(s); f.M != m || f.M < 2*p-1 || f.GridLen() != m*m*(m/2+1) {
			t.Errorf("p=%d: FFT M2L on an edge-%d grid of %d coefficients, want edge %d", p, f.M, f.GridLen(), m)
		}
		s.Close()
	}
}

// TestFFTM2LBatchMatchesSingle: the rhs-major batch entry points must
// produce bitwise-identical check potentials to per-RHS single calls.
func TestFFTM2LBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range []kernels.Kernel{kernels.Laplace{}, kernels.NewStokes(1)} {
		s, err := NewSet(k, 6, 0.5, 0)
		if err != nil {
			t.Fatal(err)
		}
		f := NewFFTM2L(s)
		level := 2
		offsets := [][3]int{{2, 0, -2}, {-2, 3, 1}}
		const nq = 3
		ne, nc := s.EquivCount(), s.CheckCount()
		sd, td := k.SourceDim(), k.TargetDim()
		gl := f.GridLen()
		phi := make([]float64, nq*ne)
		for i := range phi {
			phi[i] = rng.NormFloat64()
		}

		// Batch path.
		batchSrc := make([]complex128, nq*sd*gl)
		f.ForwardDensityBatch(phi, nq, batchSrc)
		batchAcc := make([]complex128, nq*td*gl)
		for _, off := range offsets {
			f.AccumulateBatch(batchAcc, batchSrc, nq, level, off)
		}
		got := make([]float64, nq*nc)
		for q := 0; q < nq; q++ {
			f.ExtractGrids(batchAcc[q*td*gl:(q+1)*td*gl], level, got[q*nc:(q+1)*nc])
		}

		// One right-hand side at a time.
		want := make([]float64, nq*nc)
		for q := 0; q < nq; q++ {
			grids := forward1(f, phi[q*ne:(q+1)*ne])
			acc := newAcc1(f)
			for _, off := range offsets {
				f.AccumulateBatch(acc, grids, 1, level, off)
			}
			f.ExtractGrids(acc, level, want[q*nc:(q+1)*nc])
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: batch path differs from single path at %d: %v vs %v",
					k.Name(), i, got[i], want[i])
			}
		}
	}
}

// TestHomogeneousScalingMatchesExplicitBuild: for the Laplace kernel the
// unit-scale cache rescaled analytically must match operators built
// explicitly at the level's geometry.
func TestHomogeneousScalingMatchesExplicitBuild(t *testing.T) {
	k := kernels.Laplace{}
	s, _ := NewSet(k, 6, 0.8, 0)
	level := 4
	r := s.BoxHalfWidth(level)
	// Explicit M2M at the level geometry: the child's UE surface (octant
	// 5, half-width r/2) evaluated on the parent's UC surface.
	const octant = 5
	explicit := s.kernelMatrix(
		[3]float64{}, surface.CheckRadius(r),
		childCenter(octant, r), surface.EquivRadius(s.P, r/2),
	)
	op := s.M2M(level, octant)
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, s.EquivCount())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got := make([]float64, s.CheckCount())
	op.Apply(got, x, 1)
	want := make([]float64, s.CheckCount())
	explicit.MulAddCols(want, x, 1, 1)
	if e := relErr(got, want); e > 1e-13 {
		t.Errorf("homogeneous rescaling error %v", e)
	}
}

// builtinKernels returns the paper's three kernels and Kelvin.
func builtinKernels() []kernels.Kernel {
	return append(testKernels(), kernels.NewKelvin(1, 0.3))
}

func sameDenseBits(a, b *linalg.Dense) bool {
	return a.Rows == b.Rows && a.Cols == b.Cols && slices.EqualFunc(a.Data, b.Data, sameBits)
}

// TestOneFactorizationServesBothDirections: the UC<-UE matrix is the
// DC<-DE matrix transposed, bit for bit, for every built-in kernel, which
// is what lets pinvs factor once; and the downward inverse handed out is
// the upward one transposed. A kernel with K(-r) != K(r)ᵀ fails here
// rather than as lost digits.
func TestOneFactorizationServesBothDirections(t *testing.T) {
	for _, k := range builtinKernels() {
		for _, p := range []int{4, 6} {
			s, _ := NewSet(k, p, 0.7, 0)
			defer s.Close()
			const level = 2
			r := s.BoxHalfWidth(level)
			rc, re := surface.CheckRadius(r), surface.EquivRadius(p, r)
			up := s.kernelMatrix([3]float64{}, rc, [3]float64{}, re)
			down := s.kernelMatrix([3]float64{}, re, [3]float64{}, rc)
			if !sameDenseBits(up, down.Transpose()) {
				t.Errorf("%s p=%d: the UC<-UE matrix is not the DC<-DE matrix transposed", k.Name(), p)
			}
			pu, pd := s.UpwardPinv(level), s.DownwardPinv(level)
			if !sameDenseBits(pd.M, pu.M.Transpose()) || pd.Scale != pu.Scale {
				t.Errorf("%s p=%d: DownwardPinv is not UpwardPinv transposed", k.Name(), p)
			}
		}
	}
}

// TestCheckMatrixSweepCeiling: the one-sided Jacobi SVD of each kernel's
// check-to-equivalent matrix converges, in the number of sweeps it takes
// today (23 at n = 294, 21 at n = 152) plus a little slack for other
// architectures' rounding. The factorization is the whole set-up cost, so
// a convergence regression has to fail a test.
func TestCheckMatrixSweepCeiling(t *testing.T) {
	for _, c := range []struct {
		k       kernels.Kernel
		p, most int
	}{
		{kernels.Laplace{}, 6, 23},
		{kernels.NewModLaplace(1), 6, 23},
		{kernels.NewStokes(1), 5, 25},
		{kernels.NewKelvin(1, 0.3), 5, 25},
	} {
		s, _ := NewSet(c.k, c.p, 1, 0)
		a := s.kernelMatrix([3]float64{}, surface.CheckRadius(1), [3]float64{}, surface.EquivRadius(c.p, 1))
		dec := linalg.SVD(a)
		t.Logf("%s p=%d n=%d: %d sweeps", c.k.Name(), c.p, a.Cols, dec.Sweeps)
		if !dec.Converged || dec.Sweeps > c.most {
			t.Errorf("%s p=%d n=%d: converged=%v after %d sweeps, want convergence within %d",
				c.k.Name(), c.p, a.Cols, dec.Converged, dec.Sweeps, c.most)
		}
	}
}

// TestNonHomogeneousPerLevelCache: the modified Laplace kernel must get
// distinct operators per level (no unit-scale shortcut).
func TestNonHomogeneousPerLevelCache(t *testing.T) {
	k := kernels.NewModLaplace(2)
	s, _ := NewSet(k, 5, 0.5, 0)
	a := s.UpwardPinv(1)
	b := s.UpwardPinv(3)
	if a.M == b.M {
		t.Error("non-homogeneous kernel must not share operators across levels")
	}
	if a.Scale != 1 || b.Scale != 1 {
		t.Error("non-homogeneous operators must not be rescaled")
	}
	// Homogeneous kernels do share.
	sh, _ := NewSet(kernels.Laplace{}, 5, 0.5, 0)
	ha := sh.UpwardPinv(1)
	hb := sh.UpwardPinv(3)
	if ha.M != hb.M {
		t.Error("homogeneous kernel must share the unit-scale operator")
	}
	if ha.Scale == hb.Scale {
		t.Error("shared operator must be rescaled per level")
	}
}

// TestSurfaceConstraints asserts the placement rules listed at the end of
// paper Section 2 for our radius choices.
func TestSurfaceConstraints(t *testing.T) {
	for _, p := range []int{4, 6, 8, 10} {
		ue := surface.EquivRadius(p, 1)
		uc := surface.CheckRadius(1)
		if !(ue > 1) {
			t.Errorf("p=%d: UE must lie outside the box", p)
		}
		if !(uc > ue) {
			t.Errorf("p=%d: UC must enclose UE", p)
		}
		if !(uc < 3) {
			t.Errorf("p=%d: UC must stay inside the near range boundary", p)
		}
		// Parent UE encloses child UE: child surface reaches 0.5 + 0.5*ue
		// from the parent center.
		if !(ue > 0.5+0.5*ue/2+0) {
			// equivalent to parent's ue*1 > 0.5 + ue*0.5
			t.Errorf("p=%d: parent UE does not enclose child UE", p)
		}
		// Lattice alignment: 2r is an integer multiple of the spacing.
		h := surface.Spacing(p, 1)
		m := 2 / h
		if math.Abs(m-math.Round(m)) > 1e-12 {
			t.Errorf("p=%d: lattice misaligned, 2r/h = %v", p, m)
		}
	}
	if _, err := surface.New(2); err == nil {
		t.Error("surface degree < 3 must be rejected")
	}
}

// TestSurfacePointCount checks the 6p²-12p+8 boundary count and volume
// index integrity.
func TestSurfacePointCount(t *testing.T) {
	for _, p := range []int{3, 4, 6, 9} {
		s, err := surface.New(p)
		if err != nil {
			t.Fatal(err)
		}
		if s.N != 6*p*p-12*p+8 {
			t.Errorf("p=%d: N=%d", p, s.N)
		}
		seen := map[int]bool{}
		for _, vi := range s.VolIdx {
			if vi < 0 || vi >= p*p*p || seen[vi] {
				t.Fatalf("p=%d: bad volume index %d", p, vi)
			}
			seen[vi] = true
			x, y, z := vi/(p*p), vi/p%p, vi%p
			if x != 0 && x != p-1 && y != 0 && y != p-1 && z != 0 && z != p-1 {
				t.Fatalf("p=%d: interior point %d on surface", p, vi)
			}
		}
		// All points within the scaled cube.
		pts := s.Points([3]float64{1, 2, 3}, 0.5, nil)
		for i := 0; i < s.N; i++ {
			for d := 0; d < 3; d++ {
				c := []float64{1, 2, 3}[d]
				if math.Abs(pts[3*i+d]-c) > 0.5+1e-12 {
					t.Fatalf("p=%d: point escapes cube", p)
				}
			}
		}
	}
}

func TestSetValidation(t *testing.T) {
	if _, err := NewSet(kernels.Laplace{}, 2, 1, 0); err == nil {
		t.Error("degree 2 must be rejected")
	}
	if _, err := NewSet(kernels.Laplace{}, 6, 0, 0); err == nil {
		t.Error("zero root half-width must be rejected")
	}
	if _, err := NewSet(kernels.Laplace{}, 6, -1, 0); err == nil {
		t.Error("negative root half-width must be rejected")
	}
}
