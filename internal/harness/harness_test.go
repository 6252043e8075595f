package harness

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fmm"
	"repro/internal/kernels"
)

func tinyConfig() Config {
	return Config{
		Options:      fmm.Options{Kernel: kernels.Laplace{}, MaxPoints: 40, Degree: 4},
		Distribution: "uniform", N: 1500, Grain: 400, Procs: []int{1, 2},
	}
}

func TestFixedSizeRows(t *testing.T) {
	rows, err := FixedSize(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.N != 1500 {
			t.Errorf("fixed-size N drifted: %d", r.N)
		}
		if r.Total <= 0 || r.Flops <= 0 {
			t.Errorf("row not populated: %+v", r)
		}
		if r.Ratio < 1 {
			t.Errorf("ratio %v < 1", r.Ratio)
		}
		if r.AvgGF <= 0 {
			t.Errorf("no flop rate")
		}
	}
	// More ranks must not increase the aggregate flop count much (the
	// redundant near-root work is small).
	if rows[1].Flops < rows[0].Flops {
		t.Errorf("flops shrank with more ranks: %d -> %d", rows[0].Flops, rows[1].Flops)
	}
}

func TestIsogranularRows(t *testing.T) {
	rows, err := Isogranular(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].N != 400 || rows[1].N != 800 {
		t.Errorf("isogranular N: %d, %d", rows[0].N, rows[1].N)
	}
}

func TestFormatters(t *testing.T) {
	rows, err := FixedSize(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	tbl := Table("test table", rows)
	if !strings.Contains(tbl, "Total(s)") || !strings.Contains(tbl, "Tree(s)") {
		t.Errorf("table missing columns:\n%s", tbl)
	}
	fig := FigureCycles("fig", rows, 1)
	for _, col := range []string{"Up", "Comm", "DownV", "eff", "Wdir", "Xdir"} {
		if !strings.Contains(fig, col) {
			t.Errorf("figure missing %s:\n%s", col, fig)
		}
	}
	rates := FigureRates("rates", rows)
	if !strings.Contains(rates, "Peak") {
		t.Errorf("rates missing Peak:\n%s", rates)
	}
}

// TestExperimentsEnumerateAllArtifacts: every paper artifact and the
// traced distributed run are rows of the one table (a table's row also
// prints the figure of its sweep), and what kifmm-bench prints for -list
// and in the -exp usage text is generated from it.
func TestExperimentsEnumerateAllArtifacts(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if ids[e.ID] {
			t.Errorf("experiment %s listed twice", e.ID)
		}
		ids[e.ID] = true
		if e.Description == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, want := range []string{
		"table4.1", "table4.2", "table4.3", "ablation-loadbalance", "parfmm-trace",
	} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
		}
	}
	if len(ids) != 5 {
		t.Errorf("%d experiments, want 5: each study runs once", len(ids))
	}
	for _, artifact := range []string{"Table 4.1", "Table 4.2", "Table 4.3", "Figure 4.2", "Figure 4.3"} {
		if !strings.Contains(List(), artifact) {
			t.Errorf("List() does not name %s:\n%s", artifact, List())
		}
	}
	listed := IDs()
	lines := strings.Split(strings.TrimSpace(List()), "\n")
	if len(listed) != len(ids) || len(lines) != len(ids) {
		t.Fatalf("IDs() has %d entries and List() %d lines, table has %d:\n%s", len(listed), len(lines), len(ids), List())
	}
	for i, e := range Experiments() {
		if listed[i] != e.ID {
			t.Errorf("IDs()[%d] = %s, want %s", i, listed[i], e.ID)
		}
		if f := strings.Fields(lines[i]); f[0] != e.ID || !strings.HasSuffix(lines[i], e.Description) {
			t.Errorf("List() line %d = %q, want id %s and its description", i, lines[i], e.ID)
		}
	}
}

// checkSameRun asserts, for every configuration of a study's output,
// that the table's P = 1 Total(s) and the figure's P = 1 total
// (thousands of cycles per particle at 1 GHz) describe the same run of
// n particles, to printed precision: the table prints seconds to 0.001,
// the figure thousands of cycles to 0.1.
func checkSameRun(t *testing.T, id, out string, n int) {
	t.Helper()
	num := func(line, field string) float64 {
		v, err := strconv.ParseFloat(field, 64)
		if err != nil {
			t.Fatalf("%s: P = 1 row %q: %v", id, line, err)
		}
		return v
	}
	var totals, cycles []float64
	var in string // the block the next P = 1 row belongs to
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		switch {
		case strings.Contains(line, "Total(s)"):
			in = "table"
		case strings.Contains(line, "cycles/particle"):
			in = "figure"
		case len(f) > 8 && f[0] == "1" && in == "table":
			totals = append(totals, num(line, f[1]))
			in = ""
		case len(f) > 8 && f[0] == "1" && in == "figure":
			cycles = append(cycles, num(line, f[8]))
			in = ""
		}
	}
	if len(totals) == 0 || len(totals) != len(cycles) {
		t.Fatalf("%s: %d table and %d figure P = 1 rows in:\n%s", id, len(totals), len(cycles), out)
	}
	perSecond := 1e9 / float64(n) / 1e3 // thousands of cycles per particle per second at 1 GHz
	for i, tot := range totals {
		if lo, hi := (tot-0.0005)*perSecond-0.05, (tot+0.0005)*perSecond+0.05; cycles[i] < lo || cycles[i] > hi {
			t.Errorf("%s configuration %d: table Total %.3f s is %.1f–%.1f k cycles/particle, figure prints %.1f: not the same run",
				id, i, tot, lo, hi, cycles[i])
		}
	}
}

func TestDistributionsResolve(t *testing.T) {
	for _, d := range []string{"spheres", "corners", "uniform"} {
		c := tinyConfig()
		c.Distribution = d
		patches := c.Points(500)
		total := 0
		for i := range patches {
			total += patches[i].Count()
		}
		if total != 500 {
			t.Errorf("%s: %d points, want 500", d, total)
		}
	}
}

// TestTinyEndToEndSuite runs a miniature of the full experiment suite to
// guarantee every artifact regenerates without error (parfmm-trace has a
// fixed shape and runs at it), and that each table and its figure
// describe the same run.
func TestTinyEndToEndSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run skipped in -short mode")
	}
	sc := Scale{
		FixedN: 1200, FixedProcs: []int{1, 2},
		Grain: 300, IsoProcs: []int{1, 2},
		LargeProcs: 2, LargeGrains: [3]int{200, 300, 300},
		Iterations: 1,
		TraceOut:   filepath.Join(t.TempDir(), "trace.json"),
	}
	for _, e := range Experiments() {
		out, err := e.Run(sc)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(out) < 100 {
			t.Errorf("%s produced suspiciously little output", e.ID)
		}
		switch e.ID {
		case "table4.1":
			checkSameRun(t, e.ID, out, sc.FixedN)
		case "table4.2":
			checkSameRun(t, e.ID, out, sc.Grain)
		}
	}
	if fi, err := os.Stat(sc.TraceOut); err != nil || fi.Size() == 0 {
		t.Errorf("parfmm-trace wrote no Chrome trace to %s: %v", sc.TraceOut, err)
	}
}
