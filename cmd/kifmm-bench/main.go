// Command kifmm-bench regenerates the paper's evaluation artifacts
// (Tables 4.1-4.3, Figures 4.2-4.3 and the load-balance ablation) at a
// configurable scale, plus a traced distributed run. Each study runs
// once: table4.1 prints Table 4.1 and Figure 4.2 from one fixed-size
// sweep, table4.2 prints Table 4.2 and Figure 4.3 from one isogranular
// sweep.
// Performance numbers are not its business: those come from the
// repository benchmark (bench/run.sh, BENCHMARK.json).
//
// Usage:
//
//	kifmm-bench -exp table4.1            # one experiment (Table 4.1 + Figure 4.2)
//	kifmm-bench -exp all -scale 2        # everything, 2x the default size
//	kifmm-bench -list                    # show available experiments
//
// `kifmm-bench -exp parfmm-trace` runs a deterministic 4-rank traced
// distributed evaluation, prints the per-rank/per-pass virtual-time
// breakdown and critical-path summary, and writes the merged timeline
// as Chrome trace-event JSON (-trace-out; load it in Perfetto or
// chrome://tracing).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/harness"
)

func main() {
	exp := flag.String("exp", "all", "experiment id ("+strings.Join(harness.IDs(), ", ")+", all)")
	scale := flag.Float64("scale", 1, "multiply the default particle counts by this factor")
	iters := flag.Int("iters", 1, "average the interaction evaluation over this many iterations")
	maxP := flag.Int("maxp", 0, "cap the processor sweep at this rank count (0 = default sweep)")
	list := flag.Bool("list", false, "list experiments and exit")
	traceOut := flag.String("trace-out", "parfmm-trace.json", "Chrome trace-event output file of parfmm-trace")
	version := flag.Bool("version", false, "print build identity and exit")
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.String("kifmm-bench"))
		return
	}
	if *list {
		fmt.Print(harness.List())
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
	sc.TraceOut = *traceOut

	ran := false
	for _, e := range harness.Experiments() {
		if *exp != "all" && *exp != e.ID {
			continue
		}
		ran = true
		start := time.Now()
		fmt.Printf("== %s: %s\n\n", e.ID, e.Description)
		out, err := e.Run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", e.ID, err)
			os.Exit(1)
		}
		fmt.Print(out)
		fmt.Printf("[%s completed in %s]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *exp)
		os.Exit(2)
	}
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
