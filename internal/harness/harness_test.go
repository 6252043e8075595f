package harness

import (
	"context"
	"os"
	"path/filepath"
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

// TestExperimentsEnumerateAllArtifacts: every paper artifact and both
// distributed-run checks are rows of the one table, and what kifmm-bench
// prints for -list and in the -exp usage text is generated from it.
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
		"table4.1", "table4.2", "table4.3", "fig4.2", "fig4.3",
		"ablation-loadbalance", "parfmm-trace", "cluster-smoke",
	} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
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
// guarantee every artifact regenerates without error (parfmm-trace and
// cluster-smoke have a fixed shape and run at it).
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
		out, err := e.Run(context.Background(), sc)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if len(out) < 100 {
			t.Errorf("%s produced suspiciously little output", e.ID)
		}
	}
	if fi, err := os.Stat(sc.TraceOut); err != nil || fi.Size() == 0 {
		t.Errorf("parfmm-trace wrote no Chrome trace to %s: %v", sc.TraceOut, err)
	}
}
