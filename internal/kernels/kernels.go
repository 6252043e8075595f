// Package kernels implements the single-layer kernels of second-order
// constant-coefficient elliptic PDEs studied in the paper (Appendix A):
// the Laplace kernel, the modified Laplace (screened Coulomb / Yukawa)
// kernel and the Stokes (Stokeslet) kernel.
//
// A Kernel evaluates the fundamental solution G(x, y) as a dense
// TargetDim x SourceDim block given the displacement r = x - y. The
// kernel-independent FMM never needs analytic expansions of G; it only
// calls Eval, which is the heart of the paper's method.
package kernels

import (
	"math"

	"repro/internal/errs"
)

// Kernel is a translation-invariant fundamental solution G(x, y) = G(x-y).
//
// SourceDim is the number of density components carried by each source
// point; TargetDim is the number of potential components produced at each
// target point. Scalar kernels have SourceDim = TargetDim = 1; the Stokes
// kernel has SourceDim = TargetDim = 3.
type Kernel interface {
	// Name returns a short identifier, e.g. "laplace".
	Name() string
	// SourceDim returns the number of density components per source.
	SourceDim() int
	// TargetDim returns the number of potential components per target.
	TargetDim() int
	// Eval writes the TargetDim x SourceDim kernel block for displacement
	// r = x - y into out in row-major order. At r = 0 the block is zero
	// (self interactions are excluded, as in all FMM codes).
	//
	// Eval(-r) must be the transpose of Eval(r), bit for bit (so SourceDim
	// equals TargetDim): a single layer is reciprocal, and package
	// translate inverts one check-to-equivalent matrix per box size and
	// uses its transpose for the other direction.
	Eval(rx, ry, rz float64, out []float64)
	// Homogeneity reports whether G(s*x, s*y) = s^deg * G(x, y) for all
	// s > 0, and the degree deg. Homogeneous kernels allow translation
	// operators to be precomputed at unit scale and rescaled analytically.
	Homogeneity() (homogeneous bool, deg float64)
	// FlopCost returns the approximate floating point operations needed
	// for one Eval block; the harness uses it for Gflops accounting.
	FlopCost() int
}

// ByName constructs one of the built-in kernels from its name
// ("laplace", "modlaplace", "stokes", "kelvin"). The Stokes kernel uses
// viscosity mu = 1, the modified Laplace kernel lambda = 1, and the
// Kelvin elasticity kernel mu = 1, nu = 0.3; use the typed constructors
// to control parameters.
func ByName(name string) (Kernel, error) {
	switch name {
	case "laplace":
		return Laplace{}, nil
	case "modlaplace":
		return NewModLaplace(1), nil
	case "stokes":
		return NewStokes(1), nil
	case "kelvin":
		return NewKelvin(1, 0.3), nil
	default:
		return nil, errs.Newf(errs.CodeUnknownKernel, "kernels: unknown kernel %q", name)
	}
}

const fourPiInv = 1.0 / (4 * math.Pi)

// Laplace is the free-space Green's function of -Δu = 0 in 3-D:
// S(x,y) = 1/(4π r).
type Laplace struct{}

// Name implements Kernel.
func (Laplace) Name() string { return "laplace" }

// SourceDim implements Kernel.
func (Laplace) SourceDim() int { return 1 }

// TargetDim implements Kernel.
func (Laplace) TargetDim() int { return 1 }

// Homogeneity implements Kernel: 1/r scales as s^-1.
func (Laplace) Homogeneity() (bool, float64) { return true, -1 }

// FlopCost implements Kernel.
func (Laplace) FlopCost() int { return 9 }

// Eval implements Kernel.
func (Laplace) Eval(rx, ry, rz float64, out []float64) {
	r2 := rx*rx + ry*ry + rz*rz
	if r2 == 0 {
		out[0] = 0
		return
	}
	out[0] = fourPiInv / math.Sqrt(r2)
}

// ModLaplace is the free-space Green's function of αu - Δu = 0 with
// α = λ²: S(x,y) = e^(-λr)/(4π r). It is not homogeneous, so translation
// operators depend on the absolute box size (cached per tree level).
type ModLaplace struct {
	// Lambda is the screening parameter λ (inverse screening length).
	Lambda float64
}

// NewModLaplace returns the modified Laplace kernel with screening
// parameter lambda > 0.
func NewModLaplace(lambda float64) ModLaplace {
	if lambda <= 0 {
		panic("kernels: ModLaplace requires lambda > 0")
	}
	return ModLaplace{Lambda: lambda}
}

// Name implements Kernel.
func (ModLaplace) Name() string { return "modlaplace" }

// SourceDim implements Kernel.
func (ModLaplace) SourceDim() int { return 1 }

// TargetDim implements Kernel.
func (ModLaplace) TargetDim() int { return 1 }

// Homogeneity implements Kernel: e^(-λr)/r is not scale invariant.
func (ModLaplace) Homogeneity() (bool, float64) { return false, 0 }

// FlopCost implements Kernel.
func (ModLaplace) FlopCost() int { return 14 }

// Eval implements Kernel.
func (k ModLaplace) Eval(rx, ry, rz float64, out []float64) {
	r2 := rx*rx + ry*ry + rz*rz
	if r2 == 0 {
		out[0] = 0
		return
	}
	r := math.Sqrt(r2)
	out[0] = fourPiInv * math.Exp(-k.Lambda*r) / r
}

// Stokes is the Stokeslet, the free-space Green's function of the
// velocity-pressure Stokes system -μΔu + ∇p = 0, div u = 0:
// S(x,y) = 1/(8πμ) (I/r + r⊗r/r³).
type Stokes struct {
	// Mu is the dynamic viscosity μ > 0.
	Mu float64
}

// NewStokes returns the Stokes single-layer kernel with viscosity mu > 0.
func NewStokes(mu float64) Stokes {
	if mu <= 0 {
		panic("kernels: Stokes requires mu > 0")
	}
	return Stokes{Mu: mu}
}

// Name implements Kernel.
func (Stokes) Name() string { return "stokes" }

// SourceDim implements Kernel.
func (Stokes) SourceDim() int { return 3 }

// TargetDim implements Kernel.
func (Stokes) TargetDim() int { return 3 }

// Homogeneity implements Kernel: both I/r and r⊗r/r³ scale as s^-1.
func (Stokes) Homogeneity() (bool, float64) { return true, -1 }

// FlopCost implements Kernel.
func (Stokes) FlopCost() int { return 28 }

// Eval implements Kernel.
func (k Stokes) Eval(rx, ry, rz float64, out []float64) {
	r2 := rx*rx + ry*ry + rz*rz
	if r2 == 0 {
		for i := range out[:9] {
			out[i] = 0
		}
		return
	}
	c := 1.0 / (8 * math.Pi * k.Mu)
	inv := 1 / math.Sqrt(r2)
	inv3 := inv * inv * inv
	diag := c * inv
	out[0] = diag + c*inv3*rx*rx
	out[1] = c * inv3 * rx * ry
	out[2] = c * inv3 * rx * rz
	out[3] = out[1]
	out[4] = diag + c*inv3*ry*ry
	out[5] = c * inv3 * ry * rz
	out[6] = out[2]
	out[7] = out[5]
	out[8] = diag + c*inv3*rz*rz
}
