package kernels

import (
	"math"

	"repro/internal/cpu"
)

// P2P accumulates the direct particle-to-particle interaction
//
//	pot[i] += Σ_j G(trg_i, src_j) den_j
//
// into pot. Positions are flat (x0,y0,z0,x1,...) slices; den has
// SourceDim components per source and pot has TargetDim components per
// target. Self interactions (zero displacement) contribute nothing.
//
// The Laplace, Stokes and modified Laplace kernels dispatch to
// hand-unrolled inner loops; every other kernel goes through the generic
// Eval path. Both paths produce identical results up to rounding (see
// TestP2PSpecializationsAgree). On amd64 CPUs with AVX2 the Laplace loop
// runs an assembly body that rounds exactly like its Go loop, which runs
// everywhere else (see laplaceP2P); the result never depends on which
// body ran.
func P2P(k Kernel, trg, src, den, pot []float64) {
	switch kk := k.(type) {
	case Laplace:
		laplaceP2P(trg, src, den, pot)
	case Stokes:
		stokesP2P(kk.Mu, trg, src, den, pot)
	case ModLaplace:
		modLaplaceP2P(kk.Lambda, trg, src, den, pot)
	default:
		GenericP2P(k, trg, src, den, pot)
	}
}

// GenericP2P is the kernel-agnostic direct interaction loop used by P2P
// for kernels without a specialized implementation. It is exported so
// tests can verify the specialized loops against it.
func GenericP2P(k Kernel, trg, src, den, pot []float64) {
	sd, td := k.SourceDim(), k.TargetDim()
	block := make([]float64, sd*td)
	nt, ns := len(trg)/3, len(src)/3
	for i := 0; i < nt; i++ {
		tx, ty, tz := trg[3*i], trg[3*i+1], trg[3*i+2]
		for j := 0; j < ns; j++ {
			k.Eval(tx-src[3*j], ty-src[3*j+1], tz-src[3*j+2], block)
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

func modLaplaceP2P(lambda float64, trg, src, den, pot []float64) {
	nt, ns := len(trg)/3, len(src)/3
	for i := 0; i < nt; i++ {
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
			r := math.Sqrt(r2)
			sum += den[j] * math.Exp(-lambda*r) / r
		}
		pot[i] += fourPiInv * sum
	}
}

func stokesP2P(mu float64, trg, src, den, pot []float64) {
	c := 1.0 / (8 * math.Pi * mu)
	nt, ns := len(trg)/3, len(src)/3
	for i := 0; i < nt; i++ {
		tx, ty, tz := trg[3*i], trg[3*i+1], trg[3*i+2]
		var sx, sy, sz float64
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
			fx, fy, fz := den[3*j], den[3*j+1], den[3*j+2]
			rdotf := rx*fx + ry*fy + rz*fz
			sx += inv*fx + inv3*rdotf*rx
			sy += inv*fy + inv3*rdotf*ry
			sz += inv*fz + inv3*rdotf*rz
		}
		pot[3*i] += c * sx
		pot[3*i+1] += c * sy
		pot[3*i+2] += c * sz
	}
}

// Matrix fills out (row-major, nt*TargetDim rows by ns*SourceDim columns)
// with the dense interaction matrix between the target points trg and the
// source points src, so that pot = out * den reproduces P2P. out must
// have length (nt*td)*(ns*sd).
//
// Like P2P, Laplace, modified Laplace and Stokes dispatch to unrolled
// loops — batched near-field evaluation materializes these blocks on its
// hot path — and every other kernel goes through the generic Eval path.
// Each unrolled loop writes the expressions of its kernel's Eval, so the
// two paths agree bit for bit (TestMatrixSpecializationsAgree).
func Matrix(k Kernel, trg, src, out []float64) {
	switch kk := k.(type) {
	case Laplace:
		laplaceMatrix(trg, src, out)
	case ModLaplace:
		modLaplaceMatrix(kk.Lambda, trg, src, out)
	case Stokes:
		stokesMatrix(kk, trg, src, out)
	default:
		genericMatrix(k, trg, src, out)
	}
}

func genericMatrix(k Kernel, trg, src, out []float64) {
	sd, td := k.SourceDim(), k.TargetDim()
	nt, ns := len(trg)/3, len(src)/3
	cols := ns * sd
	block := make([]float64, sd*td)
	for i := 0; i < nt; i++ {
		tx, ty, tz := trg[3*i], trg[3*i+1], trg[3*i+2]
		for j := 0; j < ns; j++ {
			k.Eval(tx-src[3*j], ty-src[3*j+1], tz-src[3*j+2], block)
			for a := 0; a < td; a++ {
				row := (i*td + a) * cols
				for b := 0; b < sd; b++ {
					out[row+j*sd+b] = block[a*sd+b]
				}
			}
		}
	}
}

func laplaceMatrix(trg, src, out []float64) {
	nt, ns := len(trg)/3, len(src)/3
	for i := 0; i < nt; i++ {
		tx, ty, tz := trg[3*i], trg[3*i+1], trg[3*i+2]
		row := out[i*ns : (i+1)*ns]
		for j := 0; j < ns; j++ {
			rx := tx - src[3*j]
			ry := ty - src[3*j+1]
			rz := tz - src[3*j+2]
			r2 := rx*rx + ry*ry + rz*rz
			if r2 == 0 {
				row[j] = 0
				continue
			}
			row[j] = fourPiInv / math.Sqrt(r2)
		}
	}
}

func modLaplaceMatrix(lambda float64, trg, src, out []float64) {
	nt, ns := len(trg)/3, len(src)/3
	for i := 0; i < nt; i++ {
		tx, ty, tz := trg[3*i], trg[3*i+1], trg[3*i+2]
		row := out[i*ns : (i+1)*ns]
		for j := 0; j < ns; j++ {
			rx := tx - src[3*j]
			ry := ty - src[3*j+1]
			rz := tz - src[3*j+2]
			r2 := rx*rx + ry*ry + rz*rz
			if r2 == 0 {
				row[j] = 0
				continue
			}
			r := math.Sqrt(r2)
			row[j] = fourPiInv * math.Exp(-lambda*r) / r
		}
	}
}

// stokesMatrix writes the expressions of Stokes.Eval straight into the
// 3×3 blocks of out, without an interface call per pair.
func stokesMatrix(k Stokes, trg, src, out []float64) {
	nt, ns := len(trg)/3, len(src)/3
	cols := 3 * ns
	c := 1.0 / (8 * math.Pi * k.Mu)
	for i := 0; i < nt; i++ {
		tx, ty, tz := trg[3*i], trg[3*i+1], trg[3*i+2]
		r0 := out[(3*i)*cols:][:cols]
		r1 := out[(3*i+1)*cols:][:cols]
		r2 := out[(3*i+2)*cols:][:cols]
		for j := 0; j < ns; j++ {
			rx := tx - src[3*j]
			ry := ty - src[3*j+1]
			rz := tz - src[3*j+2]
			b0, b1, b2 := r0[3*j:3*j+3], r1[3*j:3*j+3], r2[3*j:3*j+3]
			d2 := rx*rx + ry*ry + rz*rz
			if d2 == 0 {
				b0[0], b0[1], b0[2] = 0, 0, 0
				b1[0], b1[1], b1[2] = 0, 0, 0
				b2[0], b2[1], b2[2] = 0, 0, 0
				continue
			}
			inv := 1 / math.Sqrt(d2)
			inv3 := inv * inv * inv
			diag := c * inv
			xy, xz, yz := c*inv3*rx*ry, c*inv3*rx*rz, c*inv3*ry*rz
			b0[0], b0[1], b0[2] = diag+c*inv3*rx*rx, xy, xz
			b1[0], b1[1], b1[2] = xy, diag+c*inv3*ry*ry, yz
			b2[0], b2[1], b2[2] = xz, yz, diag+c*inv3*rz*rz
		}
	}
}

// P2PFlops returns the approximate flop count of one P2P call with nt
// targets and ns sources for kernel k.
func P2PFlops(k Kernel, nt, ns int) int64 {
	return int64(nt) * int64(ns) * int64(k.FlopCost()+2*k.SourceDim()*k.TargetDim())
}
