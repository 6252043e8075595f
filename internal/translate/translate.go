// Package translate builds and caches the density-translation operators
// of the kernel-independent FMM (paper Section 2.1):
//
//	S2M/M2M: equations (2.1) and (2.3) — build a box's upward equivalent
//	         density from its sources or its children's densities by
//	         evaluating an upward check potential and inverting the
//	         check/equivalent integral equation;
//	M2L:     equation (2.4) — turn a far box's upward equivalent density
//	         into a downward check potential;
//	L2L:     equation (2.5) — pass the downward equivalent density from a
//	         parent to a child.
//
// The inversions are truncated-SVD pseudo-inverses (the regularization
// the method needs: the integral equations are consistent but
// ill-conditioned), and each box size is factored once. The upward
// equation maps UE densities to UC potentials, the downward one DE
// densities to DC potentials; DE sits on UC's surface and DC on UE's, on
// the same lattice, so entry (i, j) of one matrix is the kernel at r and
// entry (j, i) of the other the kernel at -r. A single-layer kernel has
// K(-r) = K(r)ᵀ (the kernels.Kernel contract), which makes the downward
// matrix the transpose of the upward one bit for bit, and the transpose of
// a pseudo-inverse is the pseudo-inverse of the transpose: the downward
// operator is the upward operator transposed.
//
// For homogeneous kernels (Laplace, Stokes) all operators are built once
// at unit scale and rescaled analytically, since
// G(s·x, s·y) = s^deg · G(x, y) makes every level's operator an exact
// multiple of the unit one; non-homogeneous kernels (modified Laplace)
// get one set of operators per level.
//
// Operators live in one process-wide store (store.go): one refcounted
// entry per (kernel, degree, truncation, box half-width) holds the dense
// operators and the FFT tensors of that box size. A Set holds the entries
// it uses until Set.Close; an entry nobody holds leaves the store once it
// falls out of a fixed retention (retainBytes, the most recently released
// entry always kept), so closing the last plan over a geometry really
// frees its operators.
package translate

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/kernels"
	"repro/internal/linalg"
	"repro/internal/surface"
)

// Op is a dense operator together with the analytic scale factor to apply
// at a given tree level.
type Op struct {
	M     *linalg.Dense
	Scale float64
}

// Apply accumulates dst_c += Scale * M * x_c for the k right-hand sides
// of a box, stored right-hand-side-major (each vector's values
// contiguous, one vector after another), in one linalg.MulAddCols call:
// every vector comes out bit for bit as a call with k = 1 leaves it.
func (o Op) Apply(dst, x []float64, k int) { o.M.MulAddCols(dst, x, k, o.Scale) }

// Set is one plan's view of the operator store for a kernel, surface
// degree, truncation and root box size: it maps the entry of each level
// it touches once, holds it until Close, and finds it afterwards with one
// atomic load. It is safe for concurrent use.
type Set struct {
	Kern kernels.Kernel
	Surf *surface.Surface
	// P is the surface degree (grid points per cube edge).
	P int
	// RootHalfWidth is the half-width of the level-0 box.
	RootHalfWidth float64
	// Tol is the relative truncation threshold of the pseudo-inverses.
	Tol float64

	homogeneous bool
	homDeg      float64

	// ents holds the mapped entries, one per operator key (index key+1:
	// unitLevel, then levels 0..63, beyond which BoxHalfWidth's shift
	// means nothing).
	ents [65]atomic.Pointer[entry]
	// mu serializes mapping an entry against Close.
	mu     sync.Mutex
	closed bool
}

// unitLevel is the operator key of homogeneous kernels, whose single
// entry is built for a box of half-width 1.
const unitLevel = -1

// NewSet prepares a view of the operator store (surface degree p >= 3,
// level-0 box half-width rootHalfWidth) and decides the pseudo-inverse
// cut: every in-tree caller passes tol 0 (1e-10); bench/ is why tol stays.
func NewSet(k kernels.Kernel, p int, rootHalfWidth, tol float64) (*Set, error) {
	surf, err := surface.New(p)
	if err != nil {
		return nil, err
	}
	if rootHalfWidth <= 0 {
		return nil, fmt.Errorf("translate: root half-width must be positive")
	}
	if tol <= 0 {
		tol = 1e-10
	}
	s := &Set{
		Kern: k, Surf: surf, P: p,
		RootHalfWidth: rootHalfWidth, Tol: tol,
	}
	s.homogeneous, s.homDeg = k.Homogeneity()
	return s, nil
}

// EquivCount returns the number of equivalent-density values per box
// (surface points times kernel source dimension).
func (s *Set) EquivCount() int { return s.Surf.N * s.Kern.SourceDim() }

// CheckCount returns the number of check-potential values per box.
func (s *Set) CheckCount() int { return s.Surf.N * s.Kern.TargetDim() }

// BoxHalfWidth returns the half-width of a box at the given level.
func (s *Set) BoxHalfWidth(level int) float64 {
	return s.RootHalfWidth / float64(uint64(1)<<uint(level))
}

// scaleFor returns (cacheKey, evalScale, pinvScale) for a level: for
// homogeneous kernels the unit-scale operator is rescaled by r^deg
// (evaluation direction) or r^-deg (inversion direction).
func (s *Set) scaleFor(level int) (key int, eval, pinv float64) {
	if !s.homogeneous {
		return level, 1, 1
	}
	r := s.BoxHalfWidth(level)
	return unitLevel, pow(r, s.homDeg), pow(r, -s.homDeg)
}

func pow(r, d float64) float64 {
	// deg is a small integer for all supported kernels; avoid math.Pow in
	// hot paths.
	switch d {
	case -1:
		return 1 / r
	case 0:
		return 1
	case 1:
		return r
	default:
		p := 1.0
		n := int(d)
		for i := 0; i < abs(n); i++ {
			p *= r
		}
		if n < 0 {
			return 1 / p
		}
		return p
	}
}

func abs(n int) int {
	if n < 0 {
		return -n
	}
	return n
}

// entry returns the operators for key, mapping (and holding) the store's
// entry the first time.
func (s *Set) entry(key int) *entry {
	if e := s.ents[key+1].Load(); e != nil {
		return e
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.ents[key+1].Load()
	if e == nil {
		r := 1.0
		if key != unitLevel {
			r = s.BoxHalfWidth(key)
		}
		e = acquire(storeKey{kern: s.Kern, p: s.P, tol: s.Tol, radius: r}, !s.closed)
		s.ents[key+1].Store(e)
	}
	return e
}

// Close gives up this set's hold on its entries: operators no other set
// holds leave the store (and the heap) once they fall out of its small
// retention. A closed set keeps working — an evicted plan finishes its
// in-flight evaluations on the entries it mapped, and builds privately
// whatever it had not. Close is idempotent.
func (s *Set) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	var held []*entry
	for i := range s.ents {
		if e := s.ents[i].Load(); e != nil {
			held = append(held, e)
		}
	}
	release(held)
}

// share sums, over the entries this set mapped, each entry's dense or
// tensor bytes divided by its holders.
func (s *Set) share(tensors bool) int64 {
	var b int64
	for i := range s.ents {
		e := s.ents[i].Load()
		if e == nil {
			continue
		}
		n := e.denseBytes.Load()
		if tensors {
			n = e.tensorBytes.Load()
		}
		b += n / max(e.holders.Load(), 1)
	}
	return b
}

// CachedBytes estimates this set's share of the dense operators it uses:
// each mapped entry's bytes divided by the number of open sets holding
// it, so summing over all live plans counts every shared byte once.
// (FFTM2L.CachedBytes is the same sum over the FFT tensors.)
func (s *Set) CachedBytes() int64 { return s.share(false) }

// dense returns *slot, an operator of e, building it on first use.
func (e *entry) dense(slot **linalg.Dense, build func(r float64) *linalg.Dense) *linalg.Dense {
	e.mu.Lock()
	defer e.mu.Unlock()
	if *slot == nil {
		*slot = build(e.key.radius)
		e.denseBytes.Add(int64(len((*slot).Data)) * 8)
	}
	return *slot
}

// kernelMatrix builds the dense interaction matrix from the source
// surface (center cs, radius rs) to the target surface (ct, rt).
func (s *Set) kernelMatrix(ct [3]float64, rt float64, cs [3]float64, rs float64) *linalg.Dense {
	trg := s.Surf.Points(ct, rt, nil)
	src := s.Surf.Points(cs, rs, nil)
	m := linalg.NewDense(s.CheckCount(), s.EquivCount())
	kernels.Matrix(s.Kern, trg, src, m.Data)
	return m
}

// pinvs returns both check-to-equivalent inverses of a level, factoring
// the UC<-UE matrix on first use; the downward operator is the upward one
// transposed (see the package comment). The two slots fill under one hold
// of e.mu: e.dense takes that mutex, so one operator's build closure
// cannot ask for the other.
func (s *Set) pinvs(level int) (up, down Op) {
	key, _, pscale := s.scaleFor(level)
	e := s.entry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.pinvUp == nil {
		r := e.key.radius
		a := s.kernelMatrix([3]float64{}, surface.CheckRadius(r), [3]float64{}, surface.EquivRadius(s.P, r))
		e.pinvUp = linalg.PseudoInverse(a, s.Tol)
		e.pinvDown = e.pinvUp.Transpose()
		e.denseBytes.Add(2 * int64(len(e.pinvUp.Data)) * 8)
	}
	return Op{M: e.pinvUp, Scale: pscale}, Op{M: e.pinvDown, Scale: pscale}
}

// UpwardPinv returns the operator that turns an upward check potential
// (on the UC surface) into the upward equivalent density (on UE) for a
// box at the given level.
func (s *Set) UpwardPinv(level int) Op {
	up, _ := s.pinvs(level)
	return up
}

// DownwardPinv returns the operator that turns a downward check potential
// (on DC) into the downward equivalent density (on DE).
func (s *Set) DownwardPinv(level int) Op {
	_, down := s.pinvs(level)
	return down
}

// childCenter returns the center of child octant o for a parent of
// half-width r centered at the origin (octant bit 2 = x, 1 = y, 0 = z,
// matching morton.Key.Child).
func childCenter(o int, r float64) [3]float64 {
	h := r / 2
	sign := func(bit int) float64 {
		if o&bit != 0 {
			return 1
		}
		return -1
	}
	return [3]float64{sign(4) * h, sign(2) * h, sign(1) * h}
}

// M2M returns the operator evaluating a child's upward equivalent density
// (child at parentLevel+1, octant o) on the parent's upward check
// surface. The caller then applies UpwardPinv(parentLevel).
func (s *Set) M2M(parentLevel, octant int) Op {
	key, escale, _ := s.scaleFor(parentLevel)
	e := s.entry(key)
	m := e.dense(&e.m2m[octant], func(r float64) *linalg.Dense {
		return s.kernelMatrix(
			[3]float64{}, surface.CheckRadius(r),
			childCenter(octant, r), surface.EquivRadius(s.P, r/2),
		)
	})
	return Op{M: m, Scale: escale}
}

// L2L returns the operator evaluating the parent's downward equivalent
// density on the child's downward check surface (child octant o at level
// parentLevel+1). The caller then applies DownwardPinv(parentLevel+1)
// after accumulating all downward check contributions.
func (s *Set) L2L(parentLevel, octant int) Op {
	key, escale, _ := s.scaleFor(parentLevel)
	e := s.entry(key)
	m := e.dense(&e.l2l[octant], func(r float64) *linalg.Dense {
		return s.kernelMatrix(
			childCenter(octant, r), surface.EquivRadius(s.P, r/2),
			[3]float64{}, surface.CheckRadius(r),
		)
	})
	return Op{M: m, Scale: escale}
}

// UpwardEquivPoints writes the UE surface points of a box (center c,
// half-width r) into dst (allocating if nil).
func (s *Set) UpwardEquivPoints(c [3]float64, r float64, dst []float64) []float64 {
	return s.Surf.Points(c, surface.EquivRadius(s.P, r), dst)
}

// UpwardCheckPoints writes the UC surface points of a box into dst.
func (s *Set) UpwardCheckPoints(c [3]float64, r float64, dst []float64) []float64 {
	return s.Surf.Points(c, surface.CheckRadius(r), dst)
}

// DownwardEquivPoints writes the DE surface points of a box into dst.
func (s *Set) DownwardEquivPoints(c [3]float64, r float64, dst []float64) []float64 {
	return s.Surf.Points(c, surface.CheckRadius(r), dst)
}

// DownwardCheckPoints writes the DC surface points of a box into dst.
func (s *Set) DownwardCheckPoints(c [3]float64, r float64, dst []float64) []float64 {
	return s.Surf.Points(c, surface.EquivRadius(s.P, r), dst)
}
