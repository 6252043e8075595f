package translate

import (
	"sync"

	"repro/internal/fft"
	"repro/internal/surface"
)

// FFTM2L implements the FFT-accelerated M2L translation of the paper
// ("the multipole-to-local translations are accelerated using local
// FFTs"). Because the UE surface of a source box and the DC surface of a
// target box at the same level lie on one regular lattice with spacing
// h = 2r/(p-2), the translation
//
//	u[t] = Σ_s G(h·(t - s + (p-2)·k)) φ[s]
//
// is a circular convolution once the surface density is embedded into a
// p³ volume zero-padded to an M³ grid (M = smallest 5-smooth integer
// ≥ 2p-1). Densities and kernel samples are purely real, so the
// convolution runs through the real-input transform fft.Plan3R: only
// the K = M/2+1 independent z-frequency lines of each grid are stored
// and multiplied (conjugate symmetry determines the rest), halving grid
// storage, Hadamard work and inverse-transform work relative to the
// full complex spectrum. Per V-list offset k the kernel tensor's
// forward transform is precomputed; each source box needs one forward
// FFT, each target box accumulates Hadamard products in Fourier space
// and performs a single inverse FFT. The box transforms are the corner
// forms (Plan3R.ForwardCorner / InverseCorner with n = p), which skip
// the zero padding on the way in and the unread lattice on the way out;
// the Hadamard loop runs on a vector body where the CPU has one
// (hadamardAdd). Both are bitwise equal to the plain forms.
//
// The batch entry points (ForwardDensityBatch, AccumulateBatch) lay
// grids out rhs-major so one pass over a kernel tensor serves every
// right-hand side of a batched evaluation — the tensor stays cache-hot
// across the batch instead of being re-streamed from memory per RHS.
type FFTM2L struct {
	set *Set
	M   int // padded grid edge
	K   int // stored z-frequency lines, M/2+1
	*gridPlan
	// grid[si] is the offset (x*M+y)*M+z of surface point si in an M³
	// volume, from its (x, y, z) in the p³ lattice.
	grid []int
}

// gridPlan is what the translation of every plan with one padded grid
// edge M shares: the transform plan, with its twiddles and its pool of
// per-transform scratch, and a pool of real M³ volume buffers used to
// embed densities (forward) and read off check potentials (inverse).
// The plan is immutable and both pools are safe for concurrent use.
type gridPlan struct {
	plan *fft.Plan3R
	vols sync.Pool
}

// gridPlans holds the process's one *gridPlan per grid edge, keyed by M:
// an entry per degree in use at most, and entries are never dropped.
var gridPlans sync.Map

// gridPlanFor returns the shared gridPlan of edge m, making it on first
// use.
func gridPlanFor(m int) *gridPlan {
	if g, ok := gridPlans.Load(m); ok {
		return g.(*gridPlan)
	}
	g := &gridPlan{plan: fft.NewPlan3R(m)}
	g.vols.New = func() any {
		v := make([]float64, m*m*m)
		return &v
	}
	got, _ := gridPlans.LoadOrStore(m, g)
	return got.(*gridPlan)
}

// NewFFTM2L prepares the FFT M2L translation for an operator set.
func NewFFTM2L(s *Set) *FFTM2L {
	m := fft.NextSmooth(2*s.P - 1)
	f := &FFTM2L{set: s, M: m, K: m/2 + 1, gridPlan: gridPlanFor(m)}
	p := s.P
	f.grid = make([]int, len(s.Surf.VolIdx))
	for si, vi := range s.Surf.VolIdx {
		// vi indexes the p³ volume: (x*p+y)*p+z.
		x, y, z := vi/(p*p), vi/p%p, vi%p
		f.grid[si] = (x*m+y)*m + z
	}
	return f
}

// Close does nothing: the tensors live in the entries of its Set and
// leave with Set.Close.
func (f *FFTM2L) Close() {}

// GridLen returns the number of stored Fourier coefficients per grid
// component: the half-spectrum length M·M·(M/2+1).
func (f *FFTM2L) GridLen() int { return f.M * f.M * f.K }

// volBuf fetches a pooled real M³ volume buffer.
func (f *FFTM2L) volBuf() *[]float64 {
	return f.vols.Get().(*[]float64)
}

// embedForward zero-pads one real density component into a volume grid
// and forward-transforms it into the half-spectrum grid dst. The density
// occupies the leading p³ corner, and ForwardCorner reads only the p²
// z-lines through it, so only those are cleared.
func (f *FFTM2L) embedForward(phi []float64, c, sd int, dst []complex128) {
	p, m := f.set.P, f.M
	vp := f.volBuf()
	vol := *vp
	for x := 0; x < p; x++ {
		for y := 0; y < p; y++ {
			clear(vol[(x*m+y)*m : (x*m+y+1)*m])
		}
	}
	for si, gi := range f.grid {
		vol[gi] = phi[si*sd+c]
	}
	f.plan.ForwardCorner(dst, vol, p)
	f.vols.Put(vp)
}

// extractAdd inverse-transforms one half-spectrum component grid g
// (destroying it) and adds escale times its surface values into check
// at component a. The surface lies in the leading p³ corner, the only
// part InverseCorner computes.
func (f *FFTM2L) extractAdd(g []complex128, a int, escale float64, check []float64) {
	td := f.set.Kern.TargetDim()
	vp := f.volBuf()
	vol := *vp
	f.plan.InverseCorner(vol, g, f.set.P)
	for si, gi := range f.grid {
		check[si*td+a] += escale * vol[gi]
	}
	f.vols.Put(vp)
}

// ForwardDensityBatch transforms nq right-hand sides at once: phi holds
// nq*EquivCount density values rhs-major (the layout the FMM keeps its
// upward densities in), dst receives nq*SourceDim half-spectrum grids
// flattened rhs-major (grid (q, c) at offset (q*SourceDim+c)*GridLen).
func (f *FFTM2L) ForwardDensityBatch(phi []float64, nq int, dst []complex128) {
	sd := f.set.Kern.SourceDim()
	ne := f.set.EquivCount()
	gl := f.GridLen()
	for q := 0; q < nq; q++ {
		for c := 0; c < sd; c++ {
			f.embedForward(phi[q*ne:(q+1)*ne], c, sd, dst[(q*sd+c)*gl:(q*sd+c+1)*gl])
		}
	}
}

// AccumulateBatch adds the Fourier-space M2L contribution of a source
// box to a target accumulator, for boxes at the given level with integer
// center offset k = (targetCell - sourceCell), across nq right-hand sides
// with rhs-major flattened grids: acc holds nq*TargetDim accumulator
// grids, src nq*SourceDim source grids (the ForwardDensityBatch layout).
// Each kernel tensor is walked once per (target, source) component pair
// and applied to every RHS while it is cache-hot. The homogeneous level
// scale is NOT applied here: every contribution to one accumulator comes
// from the same level, so ExtractGrids applies the scale once per
// surface point instead of once per grid element.
func (f *FFTM2L) AccumulateBatch(acc, src []complex128, nq, level int, k [3]int) {
	key, _, _ := f.set.scaleFor(level)
	t := f.tensor(key, k)
	sd, td := f.set.Kern.SourceDim(), f.set.Kern.TargetDim()
	gl := f.GridLen()
	for a := 0; a < td; a++ {
		for b := 0; b < sd; b++ {
			tg := t[a*sd+b]
			for q := 0; q < nq; q++ {
				hadamardAdd(acc[(q*td+a)*gl:(q*td+a+1)*gl], tg, src[(q*sd+b)*gl:(q*sd+b+1)*gl])
			}
		}
	}
}

// ExtractGrids inverse-transforms one right-hand side of the
// accumulator — acc holds TargetDim half-spectrum grids back to back,
// one AccumulateBatch RHS slot — and reads off the downward check
// potential at the DC surface points, applying the level's analytic
// operator scale (see AccumulateBatch) and adding into check (CheckCount
// values). level must match the AccumulateBatch calls that filled acc;
// acc is used as workspace and is garbage afterwards.
func (f *FFTM2L) ExtractGrids(acc []complex128, level int, check []float64) {
	_, escale, _ := f.set.scaleFor(level)
	td := f.set.Kern.TargetDim()
	gl := f.GridLen()
	for a := 0; a < td; a++ {
		f.extractAdd(acc[a*gl:(a+1)*gl], a, escale, check)
	}
}

// tensor returns the forward-transformed kernel translation tensor for
// operator key and offset k from the set's entry, building it on first
// use.
func (f *FFTM2L) tensor(key int, k [3]int) [][]complex128 {
	e := f.set.entry(key)
	slot, mu := e.tensors.slot(k)
	if t := slot.Load(); t != nil {
		return *t
	}
	mu.Lock()
	defer mu.Unlock()
	if t := slot.Load(); t != nil {
		return *t
	}
	t := f.buildTensor(e.key.radius, k)
	slot.Store(&t)
	e.tensorBytes.Add(int64(len(t)) * int64(f.GridLen()) * 16)
	return t
}

// buildTensor samples the kernel over every lattice offset of the
// translation and forward-transforms the result into half-spectrum
// grids.
func (f *FFTM2L) buildTensor(r float64, k [3]int) [][]complex128 {
	p, m := f.set.P, f.M
	h := surface.Spacing(p, r)
	sd, td := f.set.Kern.SourceDim(), f.set.Kern.TargetDim()
	vols := make([][]float64, td*sd)
	for c := range vols {
		vols[c] = make([]float64, m*m*m)
	}
	block := make([]float64, td*sd)
	for dx := -(p - 1); dx <= p-1; dx++ {
		wx := wrap(dx, m)
		for dy := -(p - 1); dy <= p-1; dy++ {
			wy := wrap(dy, m)
			for dz := -(p - 1); dz <= p-1; dz++ {
				wz := wrap(dz, m)
				f.set.Kern.Eval(
					h*float64(dx+(p-2)*k[0]),
					h*float64(dy+(p-2)*k[1]),
					h*float64(dz+(p-2)*k[2]),
					block,
				)
				idx := (wx*m+wy)*m + wz
				for c, v := range block {
					vols[c][idx] = v
				}
			}
		}
	}
	t := make([][]complex128, td*sd)
	for c := range t {
		t[c] = make([]complex128, f.GridLen())
		f.plan.Forward(t[c], vols[c])
	}
	return t
}

// CachedBytes estimates this translation's share of the kernel tensors its
// set's entries hold, divided like Set.CachedBytes.
func (f *FFTM2L) CachedBytes() int64 { return f.set.share(true) }

func wrap(d, m int) int {
	d %= m
	if d < 0 {
		d += m
	}
	return d
}
