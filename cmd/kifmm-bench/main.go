// Command kifmm-bench regenerates the paper's evaluation artifacts
// (Tables 4.1-4.3, Figures 4.2-4.3 and the M2L ablation) at a
// configurable scale.
//
// Usage:
//
//	kifmm-bench -exp table4.1            # one experiment
//	kifmm-bench -exp all -scale 2        # everything, 2x the default size
//	kifmm-bench -list                    # show available experiments
//
// It also records performance-trajectory samples: `kifmm-bench
// -trajectory` runs a fixed workload (N=10000 uniform points, Laplace,
// degree 6, FFT M2L) and appends a schema'd entry — git SHA, date,
// per-stage ms, flops, granted lanes — to BENCH_trajectory.json
// (-trajectory-file), so performance is comparable across commits.
//
// `kifmm-bench -exp parfmm-trace` runs a deterministic 4-rank traced
// distributed evaluation, prints the per-rank/per-pass virtual-time
// breakdown and critical-path summary, and writes the merged timeline
// as Chrome trace-event JSON (-trace-out; load it in Perfetto or
// chrome://tracing). Combine with -trajectory to also append a sample
// carrying the distributed fields (ranks, comm traffic, critical path).
//
// `kifmm-bench -exp cluster-smoke` boots a real-TCP loopback cluster
// (coordinator + two workers in one process tree), runs one evaluation
// round-trip over the wire, and verifies the result against the
// single-node engine to 1e-12 relative L2. With -trajectory it appends
// a sample carrying the real-transport ranks and comm volumes.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (table4.1, fig4.2, table4.2, fig4.3, table4.3, ablation-m2l, exec-workers, parfmm-trace, cluster-smoke, all)")
	scale := flag.Float64("scale", 1, "multiply the default particle counts by this factor")
	iters := flag.Int("iters", 1, "average the interaction evaluation over this many iterations")
	maxP := flag.Int("maxp", 0, "cap the processor sweep at this rank count (0 = default sweep)")
	list := flag.Bool("list", false, "list experiments and exit")
	traj := flag.Bool("trajectory", false, "record one performance-trajectory sample and exit")
	trajFile := flag.String("trajectory-file", "BENCH_trajectory.json", "trajectory file to append to (with -trajectory)")
	trajN := flag.Int("trajectory-n", 0, "trajectory workload size (0 = default 10000)")
	label := flag.String("label", "", "free-form tag stored with the trajectory entry")
	traceOut := flag.String("trace-out", "parfmm-trace.json", "Chrome trace-event output file (with -exp parfmm-trace)")
	traceRanks := flag.Int("trace-ranks", 0, "simulated rank count for -exp parfmm-trace (0 = default 4)")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("kifmm-bench"))
		return
	}

	if *exp == "parfmm-trace" {
		runParfmmTrace(*traceOut, *traceRanks, *trajN, *iters, *traj, *trajFile, *label)
		return
	}

	if *exp == "cluster-smoke" {
		runClusterSmoke(*trajN, *traj, *trajFile, *label)
		return
	}

	if *traj {
		entry, err := harness.RunTrajectoryPoint(context.Background(), harness.TrajectoryConfig{
			N: *trajN, Iterations: *iters, Label: *label,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := harness.AppendTrajectory(*trajFile, entry); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("appended to %s: sha=%s n=%d wall=%.1fms flops=%d lanes=%d\n",
			*trajFile, entry.GitSHA, entry.N, entry.WallMS, entry.Flops, entry.GrantedLanes)
		return
	}

	exps := harness.Experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-14s %s\n", e.ID, e.Description)
		}
		fmt.Printf("%-14s %s\n", "parfmm-trace",
			"traced 4-rank distributed run: per-pass breakdown, critical path, Chrome trace JSON")
		fmt.Printf("%-14s %s\n", "cluster-smoke",
			"real-TCP loopback cluster (coordinator + 2 workers): one round-trip checked against single node")
		return
	}

	sc := harness.DefaultScale()
	sc.FixedN = int(float64(sc.FixedN) * *scale)
	sc.Grain = int(float64(sc.Grain) * *scale)
	for i := range sc.LargeGrains {
		sc.LargeGrains[i] = int(float64(sc.LargeGrains[i]) * *scale)
	}
	sc.Iterations = *iters
	if *maxP > 0 {
		sc.FixedProcs = capProcs(sc.FixedProcs, *maxP)
		sc.IsoProcs = capProcs(sc.IsoProcs, *maxP)
		if sc.LargeProcs > *maxP {
			sc.LargeProcs = *maxP
		}
	}

	ran := false
	for _, e := range exps {
		if *exp != "all" && *exp != e.ID {
			continue
		}
		ran = true
		start := time.Now()
		fmt.Printf("== %s: %s\n\n", e.ID, e.Description)
		out, err := e.Run(context.Background(), sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("[%s completed in %s]\n\n", e.ID, harness.Elapse(start))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
}

// runParfmmTrace executes the traced distributed experiment, prints its
// breakdown table, writes the Chrome trace file, and (with -trajectory)
// appends a distributed trajectory sample.
func runParfmmTrace(traceOut string, ranks, n, iters int, traj bool, trajFile, label string) {
	start := time.Now()
	rep, err := harness.RunParfmmTrace(harness.ParfmmTraceConfig{
		Ranks: ranks, N: n, Iterations: iters,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(rep.Table)
	f, err := os.Create(traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := rep.Timeline.WriteChromeTrace(f); err != nil {
		f.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote Chrome trace to %s (load in Perfetto or chrome://tracing)\n", traceOut)
	if traj {
		entry := harness.ParfmmTrajectoryEntry(rep, label)
		if err := harness.AppendTrajectory(trajFile, entry); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("appended to %s: sha=%s ranks=%d critical_path=%.1fms comm=%dB/%d msgs\n",
			trajFile, entry.GitSHA, entry.Ranks, entry.CriticalPathMS, entry.CommBytes, entry.CommMsgs)
	}
	fmt.Printf("[parfmm-trace completed in %s]\n", harness.Elapse(start))
}

// runClusterSmoke boots the real-TCP loopback cluster, runs one
// evaluation round-trip, prints the per-rank breakdown, and (with
// -trajectory) appends a distributed sample carrying the real-transport
// ranks and comm volumes.
func runClusterSmoke(n int, traj bool, trajFile, label string) {
	start := time.Now()
	rep, err := harness.RunClusterSmoke(context.Background(), harness.ClusterSmokeConfig{N: n})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Print(rep.Table)
	if traj {
		entry := harness.ClusterSmokeTrajectoryEntry(rep, label)
		if err := harness.AppendTrajectory(trajFile, entry); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("\nappended to %s: sha=%s ranks=%d comm=%dB/%d msgs rel_err=%.3g\n",
			trajFile, entry.GitSHA, entry.Ranks, entry.CommBytes, entry.CommMsgs, rep.RelErr)
	}
	fmt.Printf("[cluster-smoke completed in %s]\n", harness.Elapse(start))
}

func capProcs(ps []int, max int) []int {
	out := ps[:0:0]
	for _, p := range ps {
		if p <= max {
			out = append(out, p)
		}
	}
	if len(out) == 0 {
		out = []int{max}
	}
	return out
}
