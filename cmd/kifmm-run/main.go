// Command kifmm-run performs one interaction evaluation (sequential or
// parallel) and prints the timing breakdown — a quick way to exercise
// the library from the command line.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	kifmm "repro"
	"repro/internal/buildinfo"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command: it parses args, prints results to out and failures
// to errOut, and returns the exit code.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("kifmm-run", flag.ContinueOnError)
	fs.SetOutput(errOut)
	n := fs.Int("n", 20000, "number of particles")
	kernel := fs.String("kernel", "laplace", "laplace | modlaplace | stokes | kelvin")
	dist := fs.String("dist", "spheres", "spheres | corners | uniform")
	degree := fs.Int("p", 6, "surface degree")
	maxPts := fs.Int("s", 60, "max points per leaf box")
	procs := fs.Int("procs", 0, "simulated MPI ranks (0 = sequential)")
	iters := fs.Int("iters", 1, "number of interaction evaluations")
	dense := fs.Bool("dense-m2l", false, "use dense M2L instead of FFT")
	seed := fs.Int64("seed", 1, "sampling seed")
	version := fs.Bool("version", false, "print build identity and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx := context.Background()

	if *version {
		fmt.Fprintln(out, buildinfo.String("kifmm-run"))
		return 0
	}

	k, err := kifmm.KernelByName(*kernel)
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
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
		// Ranks own whole patches (weighted Morton partition), so ranks
		// beyond the patch count get no points: -dist uniform is one
		// patch and would put everything on rank 0.
		if *procs > len(patches) {
			fmt.Fprintf(errOut, "kifmm-run: -procs %d exceeds the %d patch(es) of -dist %s, and ranks partition whole patches; use -dist spheres or -dist corners\n",
				*procs, len(patches), *dist)
			return 1
		}
		res, err := kifmm.EvaluateParallel(patches, den, *procs, kifmm.ParallelOptions{
			Options:    kifmm.Options{Kernel: k, Degree: *degree, MaxPoints: *maxPts, Backend: backend},
			Iterations: *iters,
		})
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		fmt.Fprintf(out, "parallel KIFMM: N=%d kernel=%s P=%d tree: %d boxes, depth %d\n",
			*n, *kernel, *procs, res.Boxes, res.Depth)
		fmt.Fprintf(out, "T(P) = %v (virtual), load ratio %.2f\n", res.MaxTotal(), res.Ratio())
		fmt.Fprintf(out, "%4s %12s %12s %12s\n", "rank", "total", "comm", "bytes")
		for r, s := range res.Ranks {
			fmt.Fprintf(out, "%4d %12v %12v %12d\n", r, s.Total, s.Comm, s.BytesSent)
		}
		return 0
	}

	// Workers pinned to 1: this path prints per-stage wall times and a
	// Mflop/s rate labeled "sequential", which only mean that on a
	// single worker (with more, Stats sums compute time across workers).
	ev, err := kifmm.NewEvaluatorCtx(ctx, pts, pts, kifmm.Options{
		Kernel: k, Degree: *degree, MaxPoints: *maxPts, Backend: backend, Workers: 1,
	})
	if err != nil {
		fmt.Fprintln(errOut, err)
		return 1
	}
	fmt.Fprintf(out, "sequential KIFMM: N=%d kernel=%s p=%d s=%d tree: %d boxes, depth %d\n",
		*n, *kernel, *degree, *maxPts, ev.Boxes(), ev.Depth())
	for it := 0; it < *iters; it++ {
		_, s, _, err := ev.EvaluateBatchTracedCtx(ctx, [][]float64{den})
		if err != nil {
			fmt.Fprintln(errOut, err)
			return 1
		}
		fmt.Fprintf(out, "iter %d: total %v  (Up %v | DownU %v | DownV %v | DownW %v | DownX %v | Eval %v)  %.1f Mflop/s\n",
			it, s.Total(), s.Up, s.DownU, s.DownV, s.DownW, s.DownX, s.Eval,
			float64(s.Flops())/s.Total().Seconds()/1e6)
	}
	return 0
}
