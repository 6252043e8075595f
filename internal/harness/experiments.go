package harness

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/fmm"
	"repro/internal/kernels"
)

// Scale controls how far the scaled-down reproduction pushes N and P.
// The paper used 3.2M-700M particles on up to 3000 processors; this
// reproduction runs every rank on one host, so the defaults keep a full
// suite under a few minutes. Multiply for closer-to-paper runs.
type Scale struct {
	// FixedN is the fixed-size particle count (paper: 3.2M).
	FixedN int
	// FixedProcs sweeps the fixed-size study (paper: 1..1024).
	FixedProcs []int
	// Grain is the isogranular per-rank count (paper: 200k).
	Grain int
	// IsoProcs sweeps the isogranular study (paper: 1..2048).
	IsoProcs []int
	// LargeProcs is the processor count of the "largest runs" table
	// (paper: 3000).
	LargeProcs int
	// LargeGrains are the per-rank counts of the three Table 4.3 rows
	// (paper: 100k, 230k, 230k).
	LargeGrains [3]int
	// Iterations averages each measurement.
	Iterations int
	// TraceRanks is the simulated rank count of parfmm-trace (0 = 4) and
	// TraceOut the file its Chrome trace-event JSON goes to ("" = none).
	TraceRanks int
	TraceOut   string
}

// DefaultScale finishes the full suite in minutes on one core.
func DefaultScale() Scale {
	return Scale{
		FixedN:      24000,
		FixedProcs:  []int{1, 2, 4, 8, 16, 32, 64},
		Grain:       1500,
		IsoProcs:    []int{1, 2, 4, 8, 16, 32},
		LargeProcs:  48,
		LargeGrains: [3]int{400, 900, 900},
		Iterations:  1,
	}
}

// Experiment couples a paper artifact id with the code that regenerates
// it.
type Experiment struct {
	// ID is the paper artifact ("table4.1", "fig4.2", ...).
	ID string
	// Description summarizes the paper content being reproduced.
	Description string
	// Run produces the formatted reproduction.
	Run func(ctx context.Context, sc Scale) (string, error)
}

// simulated adapts an experiment over the MPI simulation, whose ranks run
// to completion by design (mpi.Run takes no context).
func simulated(run func(Scale) (string, error)) func(context.Context, Scale) (string, error) {
	return func(_ context.Context, sc Scale) (string, error) { return run(sc) }
}

// Experiments enumerates every table and figure of the paper's
// evaluation section with its regeneration code.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID:          "table4.1",
			Description: "Fixed-size scalability (3.2M particles in the paper): Laplacian, modified Laplacian, Stokes (non-uniform)",
			Run:         simulated(runTable41),
		},
		{
			ID:          "fig4.2",
			Description: "Fixed-size per-stage cycles/particle and Mflop/s per processor",
			Run:         simulated(runFig42),
		},
		{
			ID:          "table4.2",
			Description: "Isogranular scalability (200k particles/proc in the paper): Laplace uniform, Stokes uniform, Stokes non-uniform",
			Run:         simulated(runTable42),
		},
		{
			ID:          "fig4.3",
			Description: "Isogranular per-stage cycles/particle and Mflop/s per processor",
			Run:         simulated(runFig43),
		},
		{
			ID:          "table4.3",
			Description: "Largest runs (3000 processors in the paper), s=120",
			Run:         simulated(runTable43),
		},
		{
			ID:          "ablation-m2l",
			Description: "FFT vs dense M2L (paper footnote 5)",
			Run:         simulated(runAblationM2L),
		},
		{
			ID:          "ablation-loadbalance",
			Description: "Load imbalance on non-uniform inputs and the work-estimate fix (Discussion item 6 / future work)",
			Run:         simulated(runLoadBalance),
		},
		{
			ID:          "parfmm-trace",
			Description: "Traced 4-rank distributed run: per-pass breakdown, critical path, Chrome trace JSON",
			Run:         simulated(runParfmmTrace),
		},
		{
			ID:          "cluster-smoke",
			Description: "Real-TCP loopback cluster (coordinator + 2 workers): one round-trip checked against single node",
			Run:         runClusterSmoke,
		},
	}
}

// IDs lists the experiment ids in table order.
func IDs() []string {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	return ids
}

// List renders one "id description" line per experiment.
func List() string {
	var b strings.Builder
	for _, e := range Experiments() {
		fmt.Fprintf(&b, "%-21s %s\n", e.ID, e.Description)
	}
	return b.String()
}

// fixedConfigs are the three kernel/distribution pairs of Table 4.1.
func fixedConfigs(sc Scale) []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"Laplacian kernel, uniform particle distribution", Config{
			Options: fmm.Options{Kernel: kernels.Laplace{}}, Distribution: "spheres",
			N: sc.FixedN, Procs: sc.FixedProcs, Iterations: sc.Iterations}},
		{"Modified Laplacian kernel, uniform particle distribution", Config{
			Options: fmm.Options{Kernel: kernels.NewModLaplace(1)}, Distribution: "spheres",
			N: sc.FixedN, Procs: sc.FixedProcs, Iterations: sc.Iterations}},
		{"Stokes kernel, non-uniform particle distribution", Config{
			Options: fmm.Options{Kernel: kernels.NewStokes(1)}, Distribution: "corners",
			N: sc.FixedN, Procs: sc.FixedProcs, Iterations: sc.Iterations}},
	}
}

func runTable41(sc Scale) (string, error) {
	var b strings.Builder
	b.WriteString("Table 4.1 reproduction — fixed-size scalability\n")
	fmt.Fprintf(&b, "(scaled: N=%d vs the paper's 3.2M; virtual-time simulation)\n\n", sc.FixedN)
	for _, c := range fixedConfigs(sc) {
		rows, err := FixedSize(c.cfg)
		if err != nil {
			return "", err
		}
		b.WriteString(Table(c.name, rows))
		b.WriteString("\n")
	}
	return b.String(), nil
}

func runFig42(sc Scale) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 4.2 reproduction — fixed-size per-stage breakdown\n\n")
	for _, c := range fixedConfigs(sc) {
		rows, err := FixedSize(c.cfg)
		if err != nil {
			return "", err
		}
		b.WriteString(FigureCycles(c.name, rows, 1))
		b.WriteString(FigureRates(c.name, rows))
		b.WriteString("\n")
	}
	return b.String(), nil
}

// isoConfigs are the three rows of Table 4.2.
func isoConfigs(sc Scale) []struct {
	name string
	cfg  Config
} {
	return []struct {
		name string
		cfg  Config
	}{
		{"Laplacian kernel, uniform particle distribution", Config{
			Options: fmm.Options{Kernel: kernels.Laplace{}}, Distribution: "spheres",
			Grain: sc.Grain, Procs: sc.IsoProcs, Iterations: sc.Iterations}},
		{"Stokes kernel, uniform particle distribution", Config{
			Options: fmm.Options{Kernel: kernels.NewStokes(1)}, Distribution: "spheres",
			Grain: sc.Grain, Procs: sc.IsoProcs, Iterations: sc.Iterations}},
		{"Stokes kernel, non-uniform particle distribution", Config{
			Options: fmm.Options{Kernel: kernels.NewStokes(1)}, Distribution: "corners",
			Grain: sc.Grain, Procs: sc.IsoProcs, Iterations: sc.Iterations}},
	}
}

func runTable42(sc Scale) (string, error) {
	var b strings.Builder
	b.WriteString("Table 4.2 reproduction — isogranular scalability\n")
	fmt.Fprintf(&b, "(scaled: %d particles/proc vs the paper's 200k)\n\n", sc.Grain)
	for _, c := range isoConfigs(sc) {
		rows, err := Isogranular(c.cfg)
		if err != nil {
			return "", err
		}
		b.WriteString(Table(c.name, rows))
		b.WriteString("\n")
	}
	return b.String(), nil
}

func runFig43(sc Scale) (string, error) {
	var b strings.Builder
	b.WriteString("Figure 4.3 reproduction — isogranular per-stage breakdown\n\n")
	for _, c := range isoConfigs(sc) {
		rows, err := Isogranular(c.cfg)
		if err != nil {
			return "", err
		}
		b.WriteString(FigureCycles(c.name, rows, 1))
		b.WriteString(FigureRates(c.name, rows))
		b.WriteString("\n")
	}
	return b.String(), nil
}

// runTable43 reproduces the "3000 processor runs": three problems at the
// largest processor count, s = 120 (the paper doubles s there to cut
// tree construction cost).
func runTable43(sc Scale) (string, error) {
	rows3 := []struct {
		name string
		cfg  Config
	}{
		{"Laplace, 512 spheres", Config{
			Options: fmm.Options{Kernel: kernels.Laplace{}, MaxPoints: 120}, Distribution: "spheres",
			N: sc.LargeGrains[0] * sc.LargeProcs, Procs: []int{sc.LargeProcs}, Iterations: sc.Iterations}},
		{"Laplace (larger), 512 spheres", Config{
			Options: fmm.Options{Kernel: kernels.Laplace{}, MaxPoints: 120}, Distribution: "spheres",
			N: sc.LargeGrains[1] * sc.LargeProcs, Procs: []int{sc.LargeProcs}, Iterations: sc.Iterations}},
		{"Stokes, 512 spheres", Config{
			Options: fmm.Options{Kernel: kernels.NewStokes(1), MaxPoints: 120}, Distribution: "spheres",
			N: sc.LargeGrains[2] * sc.LargeProcs, Procs: []int{sc.LargeProcs}, Iterations: sc.Iterations}},
	}
	var b strings.Builder
	b.WriteString("Table 4.3 reproduction — largest runs\n")
	fmt.Fprintf(&b, "(scaled: P=%d vs the paper's 3000; s=120 as in the paper)\n\n", sc.LargeProcs)
	fmt.Fprintf(&b, "%-28s %10s %10s %6s %9s %9s %9s | %9s %9s | %9s\n",
		"problem", "unknowns", "Total(s)", "Ratio", "Comm(s)", "Up(s)", "Down(s)", "AvgGF/s", "PeakGF/s", "Tree(s)")
	for _, c := range rows3 {
		rows, err := FixedSize(c.cfg)
		if err != nil {
			return "", err
		}
		r := rows[0]
		unknowns := r.N * c.cfg.Kernel.TargetDim()
		fmt.Fprintf(&b, "%-28s %10d %10.3f %6.2f %9.3f %9.3f %9.3f | %9.3f %9.3f | %9.3f\n",
			c.name, unknowns, r.Total.Seconds(), r.Ratio, r.Comm.Seconds(),
			r.Up.Seconds(), r.Down.Seconds(), r.AvgGF, r.PeakGF, r.Tree.Seconds())
	}
	return b.String(), nil
}

// runAblationM2L reproduces the trade-off of the paper's footnote 5: the
// dense M2L runs at a higher flop rate but performs asymptotically more
// work than the FFT path.
func runAblationM2L(sc Scale) (string, error) {
	var b strings.Builder
	b.WriteString("M2L backend ablation (paper footnote 5)\n\n")
	fmt.Fprintf(&b, "%-8s %-8s %12s %14s %14s\n", "kernel", "backend", "DownV(s)", "V flops", "V Mflop/s")
	for _, k := range []kernels.Kernel{kernels.Laplace{}, kernels.NewStokes(1)} {
		for _, be := range []struct {
			name string
			b    fmm.M2LBackend
		}{{"fft", fmm.M2LFFT}, {"dense", fmm.M2LDense}} {
			cfg := Config{
				Options: fmm.Options{Kernel: k, Backend: be.b}, Distribution: "spheres", N: sc.FixedN,
				Procs: []int{1}, Iterations: sc.Iterations,
			}
			rows, err := FixedSize(cfg)
			if err != nil {
				return "", err
			}
			r := rows[0]
			rate := 0.0
			if r.Stage.DownV > 0 {
				rate = float64(r.Stage.FlopsDownV) / r.Stage.DownV.Seconds() / 1e6
			}
			fmt.Fprintf(&b, "%-8s %-8s %12.3f %14d %14.1f\n",
				k.Name(), be.name, r.Stage.DownV.Seconds(), r.Stage.FlopsDownV, rate)
		}
	}
	b.WriteString("\nNote: flop counts are algorithmic (the FFT path counts ~n log n grid work),\n")
	b.WriteString("so compare the DownV wall-clock columns: the FFT backend wins while its\n")
	b.WriteString("nominal flop rate is lower, exactly the paper's observation.\n")
	return b.String(), nil
}
