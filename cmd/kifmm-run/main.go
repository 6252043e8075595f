// Command kifmm-run performs one interaction evaluation (sequential or
// parallel) and prints the timing breakdown — a quick way to exercise
// the library from the command line.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	kifmm "repro"
	"repro/internal/buildinfo"
)

func main() {
	n := flag.Int("n", 20000, "number of particles")
	kernel := flag.String("kernel", "laplace", "laplace | modlaplace | stokes | kelvin")
	dist := flag.String("dist", "spheres", "spheres | corners | uniform")
	degree := flag.Int("p", 6, "surface degree")
	maxPts := flag.Int("s", 60, "max points per leaf box")
	procs := flag.Int("procs", 0, "simulated MPI ranks (0 = sequential)")
	iters := flag.Int("iters", 1, "number of interaction evaluations")
	dense := flag.Bool("dense-m2l", false, "use dense M2L instead of FFT")
	seed := flag.Int64("seed", 1, "sampling seed")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()
	ctx := context.Background()

	if *version {
		fmt.Println(buildinfo.String("kifmm-run"))
		return
	}

	k, err := kifmm.KernelByName(*kernel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var patches []kifmm.Patch
	switch *dist {
	case "corners":
		patches = kifmm.CornerPatches(*seed, *n, 0.3)
	case "uniform":
		patches = kifmm.UniformPatches(*seed, *n)
	default:
		patches = kifmm.SpherePatches(*seed, *n, 8, 0.1)
	}
	pts := kifmm.FlattenPatches(patches)
	den := kifmm.RandomDensities(*seed+1, len(pts)/3, k.SourceDim())
	backend := kifmm.M2LFFT
	if *dense {
		backend = kifmm.M2LDense
	}

	if *procs > 0 {
		res, err := kifmm.EvaluateParallel(patches, den, *procs, kifmm.ParallelOptions{
			Options:    kifmm.Options{Kernel: k, Degree: *degree, MaxPoints: *maxPts, Backend: backend},
			Iterations: *iters,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("parallel KIFMM: N=%d kernel=%s P=%d tree: %d boxes, depth %d\n",
			*n, *kernel, *procs, res.Boxes, res.Depth)
		fmt.Printf("T(P) = %v (virtual), load ratio %.2f\n", res.MaxTotal(), res.Ratio())
		fmt.Printf("%4s %12s %12s %12s\n", "rank", "total", "comm", "bytes")
		for r, s := range res.Ranks {
			fmt.Printf("%4d %12v %12v %12d\n", r, s.Total, s.Comm, s.BytesSent)
		}
		return
	}

	// Workers pinned to 1: this path prints per-stage wall times and a
	// Mflop/s rate labeled "sequential", which only mean that on a
	// single worker (with more, Stats sums compute time across workers).
	ev, err := kifmm.NewEvaluatorCtx(ctx, pts, pts, kifmm.Options{
		Kernel: k, Degree: *degree, MaxPoints: *maxPts, Backend: backend, Workers: 1,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("sequential KIFMM: N=%d kernel=%s p=%d s=%d tree: %d boxes, depth %d\n",
		*n, *kernel, *degree, *maxPts, ev.Boxes(), ev.Depth())
	for it := 0; it < *iters; it++ {
		if _, err := ev.EvaluateCtx(ctx, den); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		s := ev.Stats()
		fmt.Printf("iter %d: total %v  (Up %v | DownU %v | DownV %v | DownW %v | DownX %v | Eval %v)  %.1f Mflop/s\n",
			it, s.Total(), s.Up, s.DownU, s.DownV, s.DownW, s.DownX, s.Eval,
			float64(s.Flops())/s.Total().Seconds()/1e6)
	}
}
