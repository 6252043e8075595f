package harness

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/fmm"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/parfmm"
)

// ParfmmTraceConfig shapes the deterministic distributed trace run. The
// zero value runs the default workload: 4 simulated ranks over 4000
// sphere-grid points (fixed seed), Laplace kernel, degree 4, one timed
// iteration.
type ParfmmTraceConfig struct {
	Ranks      int
	N          int
	Iterations int
}

func (c *ParfmmTraceConfig) defaults() {
	if c.Ranks <= 0 {
		c.Ranks = 4
	}
	if c.N <= 0 {
		c.N = 4000
	}
	if c.Iterations <= 0 {
		c.Iterations = 1
	}
}

// ParfmmTraceReport is the outcome of one traced distributed run: the
// merged timeline, its critical path, traffic totals, and a formatted
// per-rank/per-pass breakdown table.
type ParfmmTraceReport struct {
	Config     ParfmmTraceConfig
	Result     *parfmm.Result
	Timeline   *obs.Timeline
	MaxElapsed time.Duration
	// CriticalPath is the extracted chain of compute spans and message
	// edges; CriticalPathDur its total length (= Timeline.MaxEnd()).
	CriticalPath    []obs.PathSegment
	CriticalPathDur time.Duration
	CommBytes       int64
	CommMsgs        int64
	// Table is the human-readable report printed by kifmm-bench.
	Table string
}

// RunParfmmTrace executes the traced distributed evaluation and builds
// the report. The run is deterministic in structure (message order,
// byte counts, tree shape); virtual timestamps are metered from real
// compute and vary slightly between runs.
func RunParfmmTrace(cfg ParfmmTraceConfig) (*ParfmmTraceReport, error) {
	cfg.defaults()
	rng := rand.New(rand.NewSource(7))
	patches := geom.SphereGrid(rng, cfg.N, 4, 0.22)
	k := kernels.Laplace{}
	den := geom.RandomDensities(rng, geom.TotalCount(patches), k.SourceDim())

	res, err := parfmm.Evaluate(patches, den, cfg.Ranks, parfmm.Options{
		Options:    fmm.Options{Kernel: k, Degree: 4, MaxPoints: 40},
		Iterations: cfg.Iterations, Trace: true,
	})
	if err != nil {
		return nil, fmt.Errorf("parfmm trace: %w", err)
	}
	tl := res.Timeline
	rep := &ParfmmTraceReport{
		Config:       cfg,
		Result:       res,
		Timeline:     tl,
		MaxElapsed:   res.MaxElapsed,
		CriticalPath: tl.CriticalPath(),
		CommBytes:    tl.TotalBytes(),
		CommMsgs:     int64(tl.TotalMessages()),
	}
	rep.CriticalPathDur = obs.PathDuration(rep.CriticalPath)
	rep.Table = parfmmTraceTable(rep)
	return rep, nil
}

// writeLoads renders the per-rank load report of a merged timeline.
func writeLoads(b *strings.Builder, tl *obs.Timeline) {
	b.WriteString("rank   elapsed      busy      wait     sent(B)   recv(B)  msgs  colls\n")
	for _, l := range tl.Loads() {
		fmt.Fprintf(b, "%4d  %9s %9s %9s  %9d %9d  %4d  %5d\n",
			l.Rank, l.Elapsed.Round(time.Microsecond), l.Busy.Round(time.Microsecond),
			l.Wait.Round(time.Microsecond), l.BytesSent, l.BytesRecv, l.MsgsSent, l.Collectives)
	}
}

// parfmmTraceTable renders the per-rank load report, the per-pass
// virtual-time breakdown, and a critical-path summary.
func parfmmTraceTable(rep *ParfmmTraceReport) string {
	var b strings.Builder
	cfg := rep.Config
	fmt.Fprintf(&b, "distributed trace: P=%d  N=%d  iters=%d  T(P)=%s  critical path=%s  imbalance=%.2f\n",
		cfg.Ranks, cfg.N, cfg.Iterations, rep.MaxElapsed.Round(time.Microsecond),
		rep.CriticalPathDur.Round(time.Microsecond), rep.Timeline.ImbalanceRatio())
	fmt.Fprintf(&b, "comm: %d point-to-point messages, %d bytes\n\n", rep.CommMsgs, rep.CommBytes)

	writeLoads(&b, rep.Timeline)

	// Per-pass virtual time per rank. Warm-up is reported as one row;
	// its inner passes are not folded into the per-pass rows.
	passes := []string{
		"tree_build", "assign_owners", "warmup", "source_gather", "up",
		"source_exchange", "density_gather", "density_exchange", "down",
		"leaf",
	}
	byRank := make([]map[string]time.Duration, len(rep.Timeline.Ranks))
	for i, rt := range rep.Timeline.Ranks {
		byRank[i] = make(map[string]time.Duration)
		var walk func(s *obs.Span)
		walk = func(s *obs.Span) {
			if s.Name != "rank" && s.Name != "iteration" {
				byRank[i][s.Name] += s.Duration
			}
			if s.Name == "warmup" {
				return
			}
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(rt.Root)
	}
	b.WriteString("\npass (virtual time, summed over iterations)\n")
	fmt.Fprintf(&b, "%-17s", "")
	for _, rt := range rep.Timeline.Ranks {
		fmt.Fprintf(&b, " %10s", fmt.Sprintf("rank %d", rt.Rank))
	}
	b.WriteByte('\n')
	for _, p := range passes {
		fmt.Fprintf(&b, "%-17s", p)
		for i := range rep.Timeline.Ranks {
			fmt.Fprintf(&b, " %10s", byRank[i][p].Round(time.Microsecond))
		}
		b.WriteByte('\n')
	}

	// Which W/X path ran: entries evaluated point to point per rank.
	fmt.Fprintf(&b, "%-17s", "w_direct entries")
	for _, rs := range rep.Result.Ranks {
		fmt.Fprintf(&b, " %10d", rs.Stats.WDirect)
	}
	fmt.Fprintf(&b, "\n%-17s", "x_direct entries")
	for _, rs := range rep.Result.Ranks {
		fmt.Fprintf(&b, " %10d", rs.Stats.XDirect)
	}
	b.WriteByte('\n')

	// Critical path: where the simulated wall clock actually went.
	type slot struct {
		name string
		dur  time.Duration
		n    int
	}
	agg := map[string]*slot{}
	for _, seg := range rep.CriticalPath {
		key := seg.Kind + ":" + seg.Name
		if seg.Kind != "compute" {
			key = seg.Kind
		}
		s := agg[key]
		if s == nil {
			s = &slot{name: key}
			agg[key] = s
		}
		s.dur += seg.Dur()
		s.n++
	}
	slots := make([]*slot, 0, len(agg))
	for _, s := range agg {
		slots = append(slots, s)
	}
	sort.Slice(slots, func(i, j int) bool { return slots[i].dur > slots[j].dur })
	fmt.Fprintf(&b, "\ncritical path (%d segments)\n", len(rep.CriticalPath))
	for _, s := range slots {
		pct := 0.0
		if rep.CriticalPathDur > 0 {
			pct = 100 * float64(s.dur) / float64(rep.CriticalPathDur)
		}
		fmt.Fprintf(&b, "%-25s %10s  %5.1f%%  x%d\n", s.name, s.dur.Round(time.Microsecond), pct, s.n)
	}
	return b.String()
}

// runParfmmTrace is the parfmm-trace experiment: the report table, plus
// the merged timeline as Chrome trace-event JSON when sc.TraceOut names
// a file.
func runParfmmTrace(sc Scale) (string, error) {
	rep, err := RunParfmmTrace(ParfmmTraceConfig{Ranks: sc.TraceRanks, Iterations: sc.Iterations})
	if err != nil {
		return "", err
	}
	if sc.TraceOut == "" {
		return rep.Table, nil
	}
	var buf bytes.Buffer
	if err := rep.Timeline.WriteChromeTrace(&buf); err != nil {
		return "", err
	}
	if err := os.WriteFile(sc.TraceOut, buf.Bytes(), 0o644); err != nil {
		return "", err
	}
	return rep.Table + fmt.Sprintf("\nwrote Chrome trace to %s (load in Perfetto or chrome://tracing)\n", sc.TraceOut), nil
}
