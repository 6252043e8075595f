// Command kifmm-accuracy runs the convergence study behind the paper's
// accuracy setting ("the relative error in all experiments is 1e-5"):
// relative error of the FMM against direct summation as the surface
// degree p grows, for each kernel and particle distribution.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"

	kifmm "repro"
	"repro/internal/buildinfo"
)

func main() {
	n := flag.Int("n", 4000, "number of particles")
	seed := flag.Int64("seed", 1, "sampling seed")
	maxPts := flag.Int("s", 40, "max points per leaf box")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()
	ctx := context.Background()

	if *version {
		fmt.Println(buildinfo.String("kifmm-accuracy"))
		return
	}

	kernsNames := []string{"laplace", "modlaplace", "stokes", "kelvin"}
	degrees := []int{4, 6, 8}
	dists := []struct {
		name    string
		patches []kifmm.Patch
	}{
		{"uniform", kifmm.UniformPatches(*seed, *n)},
		{"spheres", kifmm.SpherePatches(*seed, *n, 4, 0.2)},
		{"corners", kifmm.CornerPatches(*seed, *n, 0.3)},
	}

	fmt.Printf("FMM vs direct summation, N=%d, s=%d\n\n", *n, *maxPts)
	fmt.Printf("%-12s %-10s", "kernel", "dist")
	for _, p := range degrees {
		fmt.Printf("  %12s", fmt.Sprintf("p=%d", p))
	}
	fmt.Println()
	for _, kn := range kernsNames {
		k, err := kifmm.KernelByName(kn)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, d := range dists {
			pts := kifmm.FlattenPatches(d.patches)
			den := kifmm.RandomDensities(*seed+7, len(pts)/3, k.SourceDim())
			want, err := kifmm.Direct(k, pts, pts, den)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("%-12s %-10s", kn, d.name)
			for _, p := range degrees {
				if p == 8 && k.SourceDim() > 1 {
					fmt.Printf("  %12s", "(skipped)")
					continue
				}
				ev, err := kifmm.NewEvaluatorCtx(ctx, pts, pts, kifmm.Options{
					Kernel: k, Degree: p, MaxPoints: *maxPts,
				})
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				got, err := ev.EvaluateCtx(ctx, den)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
				fmt.Printf("  %12.3e", relErr(got, want))
			}
			fmt.Println()
		}
	}
	fmt.Println("\nThe paper's experiments target 1e-5 relative error; degree 6-8 reaches it.")
}

func relErr(got, want []float64) float64 {
	num, den := 0.0, 0.0
	for i := range got {
		num += (got[i] - want[i]) * (got[i] - want[i])
		den += want[i] * want[i]
	}
	if den == 0 {
		return math.Sqrt(num)
	}
	return math.Sqrt(num / den)
}
