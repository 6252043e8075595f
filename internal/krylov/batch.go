package krylov

import (
	"context"
	"sync"

	"repro/internal/errs"
)

// BatchMatVecCtx applies the system operator to several vectors at once
// under a context: it returns ys with ys[i] = A * xs[i]. A batched FMM
// evaluation has exactly this shape, amortizing tree traversal and
// near-field kernel evaluations across the vectors. A cancellation inside
// the operator aborts every system sharing the batched application.
type BatchMatVecCtx func(ctx context.Context, xs [][]float64) ([][]float64, error)

// GMRESBatchCtx solves the systems A x_i = b_i (one shared operator,
// many right-hand sides) by running one restarted GMRES per system in
// lockstep: every iteration gathers the pending operator applications
// of all still-active systems into a single BatchMatVecCtx call. Each
// system produces exactly the iterates sequential GMRES would — the
// per-system arithmetic is GMRES itself — while the operator cost is
// paid once per batched application. xs[i] is the initial guess of
// system i and is overwritten with its solution.
//
// A system that converges (or breaks down) simply drops out of the
// batch; the rest keep iterating. An operator error — including a
// cancellation surfacing from inside the operator — aborts every
// in-flight system and is returned alongside the partial results; a
// ctx cancellation between applications is caught by each system's
// per-iteration check.
func GMRESBatchCtx(ctx context.Context, apply BatchMatVecCtx, bs, xs [][]float64, opt Options) ([]Result, error) {
	if len(xs) != len(bs) {
		return nil, errs.Newf(errs.CodeInvalidInput, "krylov: got %d initial guesses for %d right-hand sides", len(xs), len(bs))
	}
	n := -1
	for i := range bs {
		if n == -1 {
			n = len(bs[i])
		}
		if len(bs[i]) != n || len(xs[i]) != n {
			return nil, errs.Newf(errs.CodeInvalidInput, "krylov: system %d shape mismatch (one operator: every b and x must have equal length)", i)
		}
	}
	if len(bs) == 0 {
		return nil, nil
	}

	gw := &batchGateway{ctx: ctx, apply: apply, registered: len(bs)}
	results := make([]Result, len(bs))
	errors := make([]error, len(bs))
	var wg sync.WaitGroup
	wg.Add(len(bs))
	for i := range bs {
		go func(i int) {
			defer wg.Done()
			defer gw.leave()
			mv := func(_ context.Context, dst, x []float64) error {
				y, err := gw.call(x)
				if err != nil {
					return err
				}
				copy(dst, y)
				return nil
			}
			results[i], errors[i] = GMRESCtx(ctx, mv, bs[i], xs[i], opt)
		}(i)
	}
	wg.Wait()
	for _, err := range errors {
		if err != nil {
			return results, err
		}
	}
	return results, nil
}

// batchGateway synchronizes the lockstep: each system submits one
// vector per GMRES iteration and blocks; the submission completing the
// set (every registered system pending) flushes them as one
// BatchMatVecCtx call. Systems whose GMRES returns deregister,
// shrinking the set the flush waits for — that is the only coupling
// between systems, so per-system convergence behavior is untouched.
type batchGateway struct {
	ctx   context.Context
	apply BatchMatVecCtx

	mu         sync.Mutex
	registered int
	pending    []batchReq
}

type batchReq struct {
	x    []float64
	done chan batchResp
}

type batchResp struct {
	y   []float64
	err error
}

func (g *batchGateway) call(x []float64) ([]float64, error) {
	req := batchReq{x: x, done: make(chan batchResp, 1)}
	g.mu.Lock()
	g.pending = append(g.pending, req)
	if len(g.pending) == g.registered {
		g.flushLocked()
	}
	g.mu.Unlock()
	resp := <-req.done
	return resp.y, resp.err
}

func (g *batchGateway) leave() {
	g.mu.Lock()
	g.registered--
	if g.registered > 0 && len(g.pending) == g.registered {
		g.flushLocked()
	}
	g.mu.Unlock()
}

// flushLocked runs one batched application. It holds g.mu across the
// apply, which is safe: the flush condition means no other system can
// submit until the results are delivered, and leave() callers merely
// block until the flush completes. Note a blocked call() cannot miss a
// cancellation: the operator itself observes g.ctx and errors out,
// which releases every pending system with that error.
func (g *batchGateway) flushLocked() {
	reqs := g.pending
	g.pending = nil
	xs := make([][]float64, len(reqs))
	for i, r := range reqs {
		xs[i] = r.x
	}
	ys, err := g.apply(g.ctx, xs)
	if err == nil && len(ys) != len(xs) {
		err = errs.Newf(errs.CodeInternal, "krylov: batch operator returned %d vectors for %d inputs", len(ys), len(xs))
	}
	for i, r := range reqs {
		if err != nil {
			r.done <- batchResp{err: err}
			continue
		}
		r.done <- batchResp{y: ys[i]}
	}
}
