// Package krylov provides the iterative solvers the paper's applications
// wrap around the FMM: "the interaction computation (matrix vector
// multiplication within a Krylov method) is carried out multiple times"
// (Section 3). The paper used PETSc's Krylov solvers; this package
// implements restarted GMRES and BiCGSTAB over a black-box mat-vec so a
// boundary integral equation can be solved with the FMM as the operator.
//
// The solvers take a context first (GMRESCtx, BiCGSTABCtx,
// GMRESBatchCtx), check it before every operator application and pass it
// to the operator, so a cancellation lands within one FMM pass — the
// operator aborts mid-evaluation and the iteration stops — rather than
// running the remaining iterations. Operator errors abort the solve and
// propagate. The ctx-free forms live in the root package only.
package krylov

import (
	"context"
	"math"

	"repro/internal/errs"
)

// MatVecCtx applies the system operator under a context: dst = A*x.
// Returning a non-nil error aborts the solve with that error; the
// FMM's EvaluateCtx has exactly this shape.
type MatVecCtx func(ctx context.Context, dst, x []float64) error

// Options control the iteration.
type Options struct {
	// Tol is the relative residual target ||b - Ax|| / ||b|| (default 1e-8).
	Tol float64
	// MaxIters bounds the total mat-vec count (default 200).
	MaxIters int
	// Restart is the GMRES restart length m (default 30).
	Restart int
}

func (o *Options) fill() {
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 200
	}
	if o.Restart <= 0 {
		o.Restart = 30
	}
}

// Result reports convergence.
type Result struct {
	// Iterations is the number of mat-vec applications used.
	Iterations int
	// Residual is the final relative residual.
	Residual float64
	// Converged reports whether Tol was reached.
	Converged bool
}

func norm(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// GMRESCtx solves A x = b by restarted GMRES(m) with modified
// Gram-Schmidt and Givens rotations; x is used as the initial guess and
// overwritten with the current iterate. ctx is checked before every
// operator application and passed to the operator; on cancellation the
// partial Result (iterations so far) is returned together with a typed
// error satisfying errs.ErrCanceled / errs.ErrDeadlineExceeded and the
// matching context sentinel. Operator errors abort the solve the same
// way.
func GMRESCtx(ctx context.Context, apply MatVecCtx, b, x []float64, opt Options) (Result, error) {
	opt.fill()
	n := len(b)
	if len(x) != n {
		return Result{}, errs.New(errs.CodeInvalidInput, "krylov: x/b length mismatch")
	}
	bn := norm(b)
	if bn == 0 {
		for i := range x {
			x[i] = 0
		}
		return Result{Converged: true}, nil
	}
	iters := 0
	// mv is the guarded operator application: one ctx check per mat-vec,
	// which — together with the operator's own internal checks — is what
	// bounds how much work a cancellation can strand.
	mv := func(dst, src []float64) error {
		if err := ctx.Err(); err != nil {
			return errs.FromContext(err)
		}
		if err := apply(ctx, dst, src); err != nil {
			return errs.FromContext(err)
		}
		iters++
		return nil
	}
	m := opt.Restart
	// Krylov basis and Hessenberg factorization storage.
	v := make([][]float64, m+1)
	for i := range v {
		v[i] = make([]float64, n)
	}
	h := make([][]float64, m+1) // h[i][j], i <= j+1
	for i := range h {
		h[i] = make([]float64, m)
	}
	cs := make([]float64, m)
	sn := make([]float64, m)
	g := make([]float64, m+1)
	w := make([]float64, n)
	for iters < opt.MaxIters {
		// r0 = b - A x
		if err := mv(w, x); err != nil {
			return Result{Iterations: iters}, err
		}
		for i := range w {
			w[i] = b[i] - w[i]
		}
		beta := norm(w)
		if beta/bn <= opt.Tol {
			return Result{Iterations: iters, Residual: beta / bn, Converged: true}, nil
		}
		for i := range w {
			v[0][i] = w[i] / beta
		}
		for i := range g {
			g[i] = 0
		}
		g[0] = beta
		k := 0
		for ; k < m && iters < opt.MaxIters; k++ {
			if err := mv(w, v[k]); err != nil {
				return Result{Iterations: iters}, err
			}
			// Modified Gram-Schmidt.
			for i := 0; i <= k; i++ {
				h[i][k] = dot(w, v[i])
				for j := range w {
					w[j] -= h[i][k] * v[i][j]
				}
			}
			h[k+1][k] = norm(w)
			if h[k+1][k] > 0 {
				for j := range w {
					v[k+1][j] = w[j] / h[k+1][k]
				}
			}
			// Apply previous Givens rotations to the new column.
			for i := 0; i < k; i++ {
				t := cs[i]*h[i][k] + sn[i]*h[i+1][k]
				h[i+1][k] = -sn[i]*h[i][k] + cs[i]*h[i+1][k]
				h[i][k] = t
			}
			// New rotation annihilating h[k+1][k].
			den := math.Hypot(h[k][k], h[k+1][k])
			if den == 0 {
				cs[k], sn[k] = 1, 0
			} else {
				cs[k], sn[k] = h[k][k]/den, h[k+1][k]/den
			}
			h[k][k] = cs[k]*h[k][k] + sn[k]*h[k+1][k]
			h[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] = cs[k] * g[k]
			if math.Abs(g[k+1])/bn <= opt.Tol {
				k++
				break
			}
		}
		// Back-substitute y from H y = g and update x += V y.
		y := make([]float64, k)
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= h[i][j] * y[j]
			}
			if h[i][i] == 0 {
				return Result{Iterations: iters, Residual: math.Abs(g[k]) / bn},
					errs.New(errs.CodeInternal, "krylov: singular Hessenberg diagonal (breakdown)")
			}
			y[i] = s / h[i][i]
		}
		for j := 0; j < k; j++ {
			for i := range x {
				x[i] += y[j] * v[j][i]
			}
		}
		res := math.Abs(g[k]) / bn
		if res <= opt.Tol {
			return Result{Iterations: iters, Residual: res, Converged: true}, nil
		}
	}
	// Final residual measurement — not counted as an iteration (only
	// solve-advancing applications are; this keeps Iterations <=
	// MaxIters).
	if err := ctx.Err(); err != nil {
		return Result{Iterations: iters}, errs.FromContext(err)
	}
	if err := apply(ctx, w, x); err != nil {
		return Result{Iterations: iters}, errs.FromContext(err)
	}
	for i := range w {
		w[i] = b[i] - w[i]
	}
	return Result{Iterations: iters, Residual: norm(w) / bn}, nil
}

// BiCGSTABCtx solves A x = b by the stabilized bi-conjugate gradient
// method under a context; x is the initial guess and is overwritten.
// Cancellation and operator-error semantics match GMRESCtx.
func BiCGSTABCtx(ctx context.Context, apply MatVecCtx, b, x []float64, opt Options) (Result, error) {
	opt.fill()
	n := len(b)
	if len(x) != n {
		return Result{}, errs.New(errs.CodeInvalidInput, "krylov: x/b length mismatch")
	}
	bn := norm(b)
	if bn == 0 {
		for i := range x {
			x[i] = 0
		}
		return Result{Converged: true}, nil
	}
	iters := 0
	mv := func(dst, src []float64) error {
		if err := ctx.Err(); err != nil {
			return errs.FromContext(err)
		}
		if err := apply(ctx, dst, src); err != nil {
			return errs.FromContext(err)
		}
		iters++
		return nil
	}
	r := make([]float64, n)
	if err := mv(r, x); err != nil {
		return Result{Iterations: iters}, err
	}
	for i := range r {
		r[i] = b[i] - r[i]
	}
	rhat := append([]float64(nil), r...)
	var rho, alpha, omega float64 = 1, 1, 1
	vv := make([]float64, n)
	p := make([]float64, n)
	s := make([]float64, n)
	t := make([]float64, n)
	for iters < opt.MaxIters {
		rhoNew := dot(rhat, r)
		if rhoNew == 0 {
			break // breakdown
		}
		beta := (rhoNew / rho) * (alpha / omega)
		rho = rhoNew
		for i := range p {
			p[i] = r[i] + beta*(p[i]-omega*vv[i])
		}
		if err := mv(vv, p); err != nil {
			return Result{Iterations: iters}, err
		}
		alpha = rho / dot(rhat, vv)
		for i := range s {
			s[i] = r[i] - alpha*vv[i]
		}
		if norm(s)/bn <= opt.Tol {
			for i := range x {
				x[i] += alpha * p[i]
			}
			return Result{Iterations: iters, Residual: norm(s) / bn, Converged: true}, nil
		}
		if err := mv(t, s); err != nil {
			return Result{Iterations: iters}, err
		}
		tt := dot(t, t)
		if tt == 0 {
			break
		}
		omega = dot(t, s) / tt
		for i := range x {
			x[i] += alpha*p[i] + omega*s[i]
		}
		for i := range r {
			r[i] = s[i] - omega*t[i]
		}
		if res := norm(r) / bn; res <= opt.Tol {
			return Result{Iterations: iters, Residual: res, Converged: true}, nil
		}
		if omega == 0 {
			break
		}
	}
	// Final residual measurement — not counted as an iteration, as in
	// GMRESCtx.
	if err := ctx.Err(); err != nil {
		return Result{Iterations: iters}, errs.FromContext(err)
	}
	if err := apply(ctx, t, x); err != nil {
		return Result{Iterations: iters}, errs.FromContext(err)
	}
	for i := range t {
		t[i] = b[i] - t[i]
	}
	return Result{Iterations: iters, Residual: norm(t) / bn}, nil
}
