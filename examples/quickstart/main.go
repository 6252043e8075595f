// Quickstart: evaluate Laplace potentials for 10,000 particles with the
// kernel-independent FMM and verify a sample against direct summation.
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"os"
	"os/signal"

	kifmm "repro"
)

func main() {
	// The API is context-first: every expensive call takes a ctx, and
	// Ctrl-C cancels the in-flight FMM work within one pass instead of
	// letting it run to completion.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	const n = 10000
	// The paper's benchmark geometry: particles sampled from spheres on a
	// regular grid inside [-1,1]^3.
	patches := kifmm.SpherePatches(42, n, 4, 0.2)
	points := kifmm.FlattenPatches(patches)
	densities := kifmm.RandomDensities(7, n, 1)

	// Build the evaluator once (octree + translation operators)...
	ev, err := kifmm.NewEvaluatorCtx(ctx, points, points, kifmm.Options{
		Kernel: kifmm.Laplace(), // 1/(4πr)
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("octree: %d boxes, depth %d\n", ev.Boxes(), ev.Depth())

	// ...then evaluate as many density vectors as needed. A cancelled
	// ctx would surface here as a typed error: errors.Is(err,
	// kifmm.ErrCanceled) — and errors.Is(err, context.Canceled) — hold.
	// (EvaluateCtx returns the potentials alone; the traced batch form
	// also returns this call's stage breakdown.)
	pots, s, _, err := ev.EvaluateBatchTracedCtx(ctx, [][]float64{densities})
	if err != nil {
		log.Fatal(err)
	}
	pot := pots[0]
	fmt.Printf("FMM evaluation: %v (%.1f Mflop/s)\n",
		s.Total(), float64(s.Flops())/s.Total().Seconds()/1e6)

	// Verify the first 100 targets against the O(N²) reference.
	ref, err := kifmm.Direct(kifmm.Laplace(), points[:300], points, densities)
	if err != nil {
		log.Fatal(err)
	}
	num, den := 0.0, 0.0
	for i := range ref {
		num += (pot[i] - ref[i]) * (pot[i] - ref[i])
		den += ref[i] * ref[i]
	}
	fmt.Printf("relative error vs direct summation (100 samples): %.2e\n",
		math.Sqrt(num/den))
}
