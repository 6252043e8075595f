package kernels

import (
	"math"

	"repro/internal/cpu"
)

// P2P accumulates the direct particle-to-particle interaction
//
//	pots[q][i] += Σ_j G(trg_i, src_j) dens[q][j]
//
// into every right-hand side q of one call. Positions are flat
// (x0,y0,z0,x1,...) slices; each density has SourceDim components per
// source and each potential TargetDim components per target. Self
// interactions (zero displacement) contribute nothing.
//
// A single vector is a batch of one, and a batch is its vectors bit for
// bit: pots[q] ends exactly as a call with dens[q] alone leaves it
// (TestP2PBatchIsItsVectors). The Stokes and modified Laplace loops and
// the generic Eval path compute each pair's geometry once (the square
// root, the reciprocal powers, the exponential, or the Eval block) and
// accumulate every right-hand side with the one-vector expression in the
// one-vector order. The Laplace loop runs once per right-hand side: a
// shared square root would still leave a division per vector, and its
// vector body beats that. Specialized loops and the generic path agree up
// to rounding (TestP2PSpecializationsAgree). On amd64 CPUs with AVX2 the
// Laplace and Stokes loops run assembly bodies that round exactly like
// their Go loops, which run everywhere else (see laplaceP2P and
// stokesP2P); the result never depends on which body ran.
//
// block is scratch for kernels without a specialized loop, at least
// SourceDim·TargetDim long: Eval is an interface call, so a block of
// P2P's own would escape to the heap. With a shorter one (nil) such a
// kernel allocates its block per call.
func P2P(k Kernel, trg, src []float64, dens, pots [][]float64, block []float64) {
	switch kk := k.(type) {
	case Laplace:
		for q, den := range dens {
			laplaceP2P(trg, src, den, pots[q])
		}
	case Stokes:
		stokesP2P(kk.Mu, trg, src, dens, pots)
	case ModLaplace:
		modLaplaceP2P(kk.Lambda, trg, src, dens, pots)
	default:
		genericP2P(k, trg, src, dens, pots, block)
	}
}

// rhsBlock is how many right-hand sides the Stokes and modified Laplace
// loops carry per sweep over the pairs: their per-target sums live in
// stack arrays of this length, and a longer batch recomputes the pair
// geometry once per block.
const rhsBlock = 4

// genericP2P is the kernel-agnostic direct interaction loop P2P runs for
// kernels without a specialized one.
func genericP2P(k Kernel, trg, src []float64, dens, pots [][]float64, block []float64) {
	sd, td := k.SourceDim(), k.TargetDim()
	if len(block) < sd*td {
		block = make([]float64, sd*td)
	}
	nt, ns := len(trg)/3, len(src)/3
	for i := 0; i < nt; i++ {
		tx, ty, tz := trg[3*i], trg[3*i+1], trg[3*i+2]
		for j := 0; j < ns; j++ {
			k.Eval(tx-src[3*j], ty-src[3*j+1], tz-src[3*j+2], block)
			for q, den := range dens {
				pot := pots[q]
				for a := 0; a < td; a++ {
					s := 0.0
					for b := 0; b < sd; b++ {
						s += block[a*sd+b] * den[j*sd+b]
					}
					pot[i*td+a] += s
				}
			}
		}
	}
}

// laplaceP2P is the Laplace inner loop. On a CPU with AVX2 (cpu.AVX2) the
// vector body (p2p_amd64.s) takes the targets in blocks of four, one per
// YMM lane, and this Go loop only the last nt%4; elsewhere the Go loop is
// the only body. The vector body computes each pair with the same
// operations in the same order: separate multiplies and adds (no FMA),
// a correctly rounded square root and division (no reciprocal
// estimate), sources summed in order, and the skipped r2 == 0 pair
// replaced by an added +0, which leaves a sum started at +0 unchanged. So
// the two bodies agree bit for bit (TestLaplaceP2PBodiesAgree) and the
// choice, made only from the CPU, never changes a result.
func laplaceP2P(trg, src, den, pot []float64) {
	nt, ns := len(trg)/3, len(src)/3
	i := 0
	if cpu.AVX2 {
		i = laplaceP2PAVX2(trg, src, den, pot)
	}
	for ; i < nt; i++ {
		tx, ty, tz := trg[3*i], trg[3*i+1], trg[3*i+2]
		sum := 0.0
		for j := 0; j < ns; j++ {
			rx := tx - src[3*j]
			ry := ty - src[3*j+1]
			rz := tz - src[3*j+2]
			r2 := rx*rx + ry*ry + rz*rz
			if r2 == 0 {
				continue
			}
			sum += den[j] / math.Sqrt(r2)
		}
		pot[i] += fourPiInv * sum
	}
}

func modLaplaceP2P(lambda float64, trg, src []float64, dens, pots [][]float64) {
	nt, ns := len(trg)/3, len(src)/3
	for q0 := 0; q0 < len(dens); q0 += rhsBlock {
		d := dens[q0:min(q0+rhsBlock, len(dens))]
		for i := 0; i < nt; i++ {
			tx, ty, tz := trg[3*i], trg[3*i+1], trg[3*i+2]
			var sum [rhsBlock]float64
			for j := 0; j < ns; j++ {
				rx := tx - src[3*j]
				ry := ty - src[3*j+1]
				rz := tz - src[3*j+2]
				r2 := rx*rx + ry*ry + rz*rz
				if r2 == 0 {
					continue
				}
				r := math.Sqrt(r2)
				g := math.Exp(-lambda * r)
				for q, den := range d {
					sum[q] += den[j] * g / r
				}
			}
			for q := range d {
				pots[q0+q][i] += fourPiInv * sum[q]
			}
		}
	}
}

// stokesP2P is the Stokes inner loop. On a CPU with AVX2 (cpu.AVX2) the
// vector body (p2p_amd64.s) takes the targets in blocks of four, one per
// YMM lane, with up to rhsBlock right-hand sides per sweep over the
// sources, and this Go loop only the last nt%4; elsewhere the Go loop is
// the only body. The vector body shares each pair's geometry among the
// vectors as this loop does and computes it, and every vector's term,
// with the same operations in the same order: separate multiplies and
// adds (no FMA), a correctly rounded square root and division (no
// reciprocal estimate), sources summed in order, and the skipped
// r2 == 0 pair replaced by an added +0. So the two bodies agree bit for
// bit (TestStokesP2PBodiesAgree).
func stokesP2P(mu float64, trg, src []float64, dens, pots [][]float64) {
	c := 1.0 / (8 * math.Pi * mu)
	nt, ns := len(trg)/3, len(src)/3
	for q0 := 0; q0 < len(dens); q0 += rhsBlock {
		d := dens[q0:min(q0+rhsBlock, len(dens))]
		i := 0
		if cpu.AVX2 {
			i = stokesP2PAVX2(c, trg, src, d, pots[q0:q0+len(d)])
		}
		for ; i < nt; i++ {
			tx, ty, tz := trg[3*i], trg[3*i+1], trg[3*i+2]
			var sx, sy, sz [rhsBlock]float64
			for j := 0; j < ns; j++ {
				rx := tx - src[3*j]
				ry := ty - src[3*j+1]
				rz := tz - src[3*j+2]
				r2 := rx*rx + ry*ry + rz*rz
				if r2 == 0 {
					continue
				}
				inv := 1 / math.Sqrt(r2)
				inv3 := inv * inv * inv
				for q, den := range d {
					fx, fy, fz := den[3*j], den[3*j+1], den[3*j+2]
					rdotf := rx*fx + ry*fy + rz*fz
					sx[q] += inv*fx + inv3*rdotf*rx
					sy[q] += inv*fy + inv3*rdotf*ry
					sz[q] += inv*fz + inv3*rdotf*rz
				}
			}
			for q := range d {
				pot := pots[q0+q]
				pot[3*i] += c * sx[q]
				pot[3*i+1] += c * sy[q]
				pot[3*i+2] += c * sz[q]
			}
		}
	}
}

// Matrix fills out (row-major, nt*TargetDim rows by ns*SourceDim columns)
// with the dense interaction matrix between the target points trg and the
// source points src, so that pot = out * den reproduces P2P up to
// rounding. out must have length (nt*td)*(ns*sd). It calls Eval once per
// pair; package translate builds its operators with it, once per box
// size.
func Matrix(k Kernel, trg, src, out []float64) {
	sd, td := k.SourceDim(), k.TargetDim()
	nt, ns := len(trg)/3, len(src)/3
	cols := ns * sd
	block := make([]float64, sd*td)
	for i := 0; i < nt; i++ {
		tx, ty, tz := trg[3*i], trg[3*i+1], trg[3*i+2]
		for j := 0; j < ns; j++ {
			k.Eval(tx-src[3*j], ty-src[3*j+1], tz-src[3*j+2], block)
			for a := 0; a < td; a++ {
				copy(out[(i*td+a)*cols+j*sd:][:sd], block[a*sd:])
			}
		}
	}
}

// P2PFlops returns the approximate flop count of one P2P call with nt
// targets and ns sources for kernel k.
func P2PFlops(k Kernel, nt, ns int) int64 {
	return int64(nt) * int64(ns) * int64(k.FlopCost()+2*k.SourceDim()*k.TargetDim())
}
