// Package direct implements the O(N²) direct summation baseline the FMM
// is verified against and compared with. It is the "Direct
// implementation of this summation" of paper Section 2, blocked for
// cache friendliness and optionally sharded across goroutines.
package direct

import (
	"context"
	"runtime"
	"sync"

	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/kernels"
)

// blockSize is the target tile edge for the blocked loops; 256 points of
// 3 coordinates keep both tiles comfortably in L1/L2.
const blockSize = 256

// Evaluate computes pot[i] = Σ_j G(trg_i, src_j) den_j by direct
// summation. den holds SourceDim components per source; the result holds
// TargetDim components per target. Self interactions (identical
// coordinates) contribute nothing, matching the FMM convention. Input it
// cannot answer is an invalid_input error (see check).
func Evaluate(k kernels.Kernel, trg, src, den []float64) ([]float64, error) {
	if err := check(k, trg, src, den); err != nil {
		return nil, err
	}
	nt := len(trg) / 3
	pot := make([]float64, nt*k.TargetDim())
	evaluateRange(k, trg, src, den, pot, 0, nt)
	return pot, nil
}

// EvaluateParallel is Evaluate sharded over workers goroutines (default
// GOMAXPROCS when workers <= 0). Targets are independent, so the shards
// never contend. ctx bounds the summation: every shard checks it
// between target blocks, so cancelling a large O(N²) reference run
// (the conformance sweeps reach N=20k) aborts within one block.
func EvaluateParallel(ctx context.Context, k kernels.Kernel, trg, src, den []float64, workers int) ([]float64, error) {
	if err := check(k, trg, src, den); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	nt := len(trg) / 3
	pot := make([]float64, nt*k.TargetDim())
	if workers > nt {
		workers = nt
	}
	if workers <= 1 {
		if err := evaluateRangeCtx(ctx, k, trg, src, den, pot, 0, nt); err != nil {
			return nil, err
		}
		return pot, nil
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		lo := nt * w / workers
		hi := nt * (w + 1) / workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			if err := evaluateRangeCtx(ctx, k, trg, src, den, pot, lo, hi); err != nil {
				errc <- err
			}
		}(lo, hi)
	}
	wg.Wait()
	select {
	case err := <-errc:
		return nil, err
	default:
	}
	return pot, nil
}

// check returns an invalid_input error for input the summation cannot
// answer: coordinates that are not whole x,y,z triples, a density of the
// wrong length, or points that break the domain rule of the FMM's octree
// (geom.CheckDomain) — a NaN or ±Inf coordinate, or a spread whose
// squared pair distances overflow, which would sum to zeros.
func check(k kernels.Kernel, trg, src, den []float64) error {
	if len(trg)%3 != 0 || len(src)%3 != 0 {
		return errs.New(errs.CodeInvalidInput, "direct: coordinates must be flat x,y,z slices")
	}
	if ns := len(src) / 3; len(den) != ns*k.SourceDim() {
		return errs.Newf(errs.CodeInvalidInput, "direct: density length %d, want %d", len(den), ns*k.SourceDim())
	}
	lo, hi, finite := geom.Bounds(trg, src)
	_, hw := geom.Cube(lo, hi)
	if err := geom.CheckDomain(finite, hw); err != nil {
		return errs.Newf(errs.CodeInvalidInput, "direct: %v", err)
	}
	return nil
}

// evaluateRangeCtx is evaluateRange with a cancellation check between
// target blocks; a cancelled run returns the typed taxonomy error.
func evaluateRangeCtx(ctx context.Context, k kernels.Kernel, trg, src, den, pot []float64, lo, hi int) error {
	for tb := lo; tb < hi; tb += blockSize {
		if err := ctx.Err(); err != nil {
			return errs.FromContext(err)
		}
		te := min(tb+blockSize, hi)
		evaluateRange(k, trg, src, den, pot, tb, te)
	}
	return nil
}

// evaluateRange fills pot for targets [lo, hi) with blocked loops.
func evaluateRange(k kernels.Kernel, trg, src, den, pot []float64, lo, hi int) {
	sd, td := k.SourceDim(), k.TargetDim()
	ns := len(src) / 3
	block := make([]float64, sd*td)
	for tb := lo; tb < hi; tb += blockSize {
		te := min(tb+blockSize, hi)
		for sb := 0; sb < ns; sb += blockSize {
			se := min(sb+blockSize, ns)
			kernels.P2P(k,
				trg[3*tb:3*te],
				src[3*sb:3*se],
				[][]float64{den[sd*sb : sd*se]},
				[][]float64{pot[td*tb : td*te]},
				block,
			)
		}
	}
}

// Flops returns the approximate flop count of one direct evaluation.
func Flops(k kernels.Kernel, nt, ns int) int64 {
	return kernels.P2PFlops(k, nt, ns)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
