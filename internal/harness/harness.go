// Package harness regenerates the paper's evaluation (Section 4): the
// fixed-size scalability study (Table 4.1, Figure 4.2), the isogranular
// study (Table 4.2, Figure 4.3) and the largest runs (Table 4.3). Each
// experiment sweeps simulated processor counts with the parallel KIFMM
// and reports the same columns the paper prints: Total/Ratio/Comm/Up/
// Down wall-clock (virtual) times, average and peak Gflop rates, tree
// construction time, plus the figures' per-stage aggregate
// cycles-per-particle series and per-processor Mflop/s rates.
package harness

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/fmm"
	"repro/internal/geom"
	"repro/internal/parfmm"
)

// Config describes one scalability sweep.
type Config struct {
	// Options are the evaluator options of every rank: the kernel under
	// test, the surface degree p, the leaf threshold s (paper: 60, largest
	// runs 120), the M2L path. Zero values take the engine's defaults.
	fmm.Options
	// Distribution is "spheres" (the 512-sphere grid), "corners" (the
	// non-uniform corner clusters) or "uniform".
	Distribution string
	// N is the total particle count (fixed-size experiments).
	N int
	// Grain is the per-processor particle count (isogranular).
	Grain int
	// Procs are the simulated processor counts to sweep.
	Procs []int
	// Iterations averages the interaction evaluation (paper: "averaged
	// over several iterations").
	Iterations int
	// Seed fixes the particle sampling.
	Seed int64
}

func (c *Config) fill() {
	if c.Distribution == "" {
		c.Distribution = "spheres"
	}
	if c.Iterations == 0 {
		c.Iterations = 1
	}
	if len(c.Procs) == 0 {
		c.Procs = []int{1, 2, 4, 8}
	}
}

// Row is one sweep point (one table line).
type Row struct {
	P, N     int
	Total    time.Duration // interaction time, averaged across ranks
	Ratio    float64       // max/min per-rank interaction time
	Comm     time.Duration // average communication time
	Up, Down time.Duration // average upward / downward compute time
	Tree     time.Duration // tree construction + setup (max across ranks)
	AvgGF    float64       // aggregate Gflop/s during the interaction
	PeakGF   float64       // aggregate peak Gflop/s (best stage rate x P)
	Flops    int64         // total flops across ranks
	Stage    fmm.Stats     // per-stage totals across ranks (for figures)
}

// Points builds the configured particle distribution.
func (c Config) Points(n int) []geom.Patch {
	rng := rand.New(rand.NewSource(c.Seed + int64(n)))
	switch c.Distribution {
	case "corners":
		return geom.CornerClusters(rng, n, 0.3, 8)
	case "uniform":
		// Split into patches on a 4x4x4 grid of slabs for partitioning
		// granularity: reuse the sphere sampler machinery.
		return geom.SphereGrid(rng, n, 4, 0.22)
	default: // "spheres": the paper's 512-sphere set
		return geom.SphereGrid(rng, n, 8, 0.1)
	}
}

// runOne executes the parallel evaluation for one processor count.
func (c Config) runOne(p, n int) (Row, error) {
	patches := c.Points(n)
	rng := rand.New(rand.NewSource(c.Seed ^ 0x5eed))
	den := geom.RandomDensities(rng, geom.TotalCount(patches), c.Kernel.SourceDim())
	res, err := parfmm.Evaluate(patches, den, p, parfmm.Options{Options: c.Options, Iterations: c.Iterations})
	if err != nil {
		return Row{}, err
	}
	row := Row{P: p, N: n, Ratio: res.Ratio()}
	var sumTotal, sumComm, sumUp, sumDown time.Duration
	var peakRate float64
	iters := time.Duration(c.Iterations)
	for _, rs := range res.Ranks {
		sumTotal += rs.Total
		sumComm += rs.Comm
		sumUp += rs.Stats.Up / iters
		down := (rs.Stats.DownU + rs.Stats.DownV + rs.Stats.DownW + rs.Stats.DownX + rs.Stats.Eval) / iters
		sumDown += down
		row.Flops += rs.Stats.Flops() / int64(c.Iterations)
		row.Stage.Add(rs.Stats)
		if rs.TreeTime > row.Tree {
			row.Tree = rs.TreeTime
		}
		for _, sr := range stageRates(rs.Stats) {
			if sr > peakRate {
				peakRate = sr
			}
		}
	}
	np := time.Duration(p)
	row.Total = sumTotal / np
	row.Comm = sumComm / np
	row.Up = sumUp / np
	row.Down = sumDown / np
	if row.Total > 0 {
		row.AvgGF = float64(row.Flops) / row.Total.Seconds() / 1e9
	}
	row.PeakGF = peakRate * float64(p) / 1e9
	// Normalize the per-stage aggregate to one iteration.
	row.Stage = scaleStats(row.Stage, c.Iterations)
	return row, nil
}

// stageRates returns the flop rates of each nonzero stage of one rank.
func stageRates(s fmm.Stats) []float64 {
	out := []float64{}
	add := func(f int64, d time.Duration) {
		if d > 0 && f > 0 {
			out = append(out, float64(f)/d.Seconds())
		}
	}
	add(s.FlopsUp, s.Up)
	add(s.FlopsDownU, s.DownU)
	add(s.FlopsDownV, s.DownV)
	add(s.FlopsDownW, s.DownW)
	add(s.FlopsDownX, s.DownX)
	add(s.FlopsEval, s.Eval)
	return out
}

func scaleStats(s fmm.Stats, iters int) fmm.Stats {
	n := time.Duration(iters)
	m := int64(iters)
	return fmm.Stats{
		Up: s.Up / n, DownU: s.DownU / n, DownV: s.DownV / n,
		DownW: s.DownW / n, DownX: s.DownX / n, Eval: s.Eval / n,
		FlopsUp: s.FlopsUp / m, FlopsDownU: s.FlopsDownU / m,
		FlopsDownV: s.FlopsDownV / m, FlopsDownW: s.FlopsDownW / m,
		FlopsDownX: s.FlopsDownX / m, FlopsEval: s.FlopsEval / m,
		WDirect: s.WDirect / m, XDirect: s.XDirect / m,
	}
}

// FixedSize sweeps processor counts at constant N (Table 4.1 / Fig 4.2).
func FixedSize(cfg Config) ([]Row, error) {
	cfg.fill()
	if cfg.N == 0 {
		cfg.N = 48000
	}
	rows := make([]Row, 0, len(cfg.Procs))
	for _, p := range cfg.Procs {
		r, err := cfg.runOne(p, cfg.N)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Isogranular sweeps processor counts at constant grain (Table 4.2 /
// Fig 4.3): N = Grain * P.
func Isogranular(cfg Config) ([]Row, error) {
	cfg.fill()
	if cfg.Grain == 0 {
		cfg.Grain = 3000
	}
	rows := make([]Row, 0, len(cfg.Procs))
	for _, p := range cfg.Procs {
		r, err := cfg.runOne(p, cfg.Grain*p)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Table renders rows in the paper's Table 4.1/4.2 layout.
func Table(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%6s %10s %6s %9s %9s %9s | %9s %9s | %9s\n",
		"P", "Total(s)", "Ratio", "Comm(s)", "Up(s)", "Down(s)", "AvgGF/s", "PeakGF/s", "Tree(s)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %10.3f %6.2f %9.3f %9.3f %9.3f | %9.3f %9.3f | %9.3f\n",
			r.P, r.Total.Seconds(), r.Ratio, r.Comm.Seconds(), r.Up.Seconds(), r.Down.Seconds(),
			r.AvgGF, r.PeakGF, r.Tree.Seconds())
	}
	return b.String()
}

// FigureCycles renders the left column of Figures 4.2/4.3: aggregate CPU
// cycles per particle, broken down by stage (Up, Comm, DownU, DownV,
// DownW, DownX, Eval), plus work efficiency T(1)/(P*T(P)) when a P=1 row
// is present. Wdir/Xdir count the W- and X-list entries that went point
// to point (summed over ranks), which is what a DownW/DownX time has to
// be read against.
func FigureCycles(title string, rows []Row, ghz float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (cycles/particle in thousands, clock %.1f GHz)\n", title, ghz)
	fmt.Fprintf(&b, "%6s %8s %8s %8s %8s %8s %8s %8s %8s | %6s | %7s %7s\n",
		"P", "Up", "Comm", "DownU", "DownV", "DownW", "DownX", "Eval", "total", "eff", "Wdir", "Xdir")
	var t1 time.Duration
	for _, r := range rows {
		if r.P == 1 {
			t1 = r.Total
		}
	}
	for _, r := range rows {
		cyc := func(d time.Duration) float64 {
			// Aggregate cycles per particle: stage time summed over ranks
			// times clock rate, divided by N.
			return d.Seconds() * ghz * 1e9 / float64(r.N) / 1e3
		}
		commAgg := time.Duration(r.P) * r.Comm
		totalAgg := time.Duration(r.P) * r.Total
		eff := 0.0
		if t1 > 0 && r.Total > 0 {
			eff = t1.Seconds() / (float64(r.P) * r.Total.Seconds())
		}
		fmt.Fprintf(&b, "%6d %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f %8.1f | %6.2f | %7d %7d\n",
			r.P, cyc(r.Stage.Up), cyc(commAgg), cyc(r.Stage.DownU), cyc(r.Stage.DownV),
			cyc(r.Stage.DownW), cyc(r.Stage.DownX), cyc(r.Stage.Eval), cyc(totalAgg), eff,
			r.Stage.WDirect, r.Stage.XDirect)
	}
	return b.String()
}

// FigureRates renders the right column of Figures 4.2/4.3: average and
// peak Mflop/s per processor and the flop-rate efficiency f(P)/f(1).
func FigureRates(title string, rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (Mflop/s per processor)\n", title)
	fmt.Fprintf(&b, "%6s %10s %10s | %6s\n", "P", "Avg", "Peak", "eff")
	f1 := 0.0
	for _, r := range rows {
		if r.P == 1 && r.Total > 0 {
			f1 = r.AvgGF * 1e3
		}
	}
	for _, r := range rows {
		avg := r.AvgGF * 1e3 / float64(r.P)
		peak := r.PeakGF * 1e3 / float64(r.P)
		eff := 0.0
		if f1 > 0 {
			eff = avg / f1
		}
		fmt.Fprintf(&b, "%6d %10.1f %10.1f | %6.2f\n", r.P, avg, peak, eff)
	}
	return b.String()
}
