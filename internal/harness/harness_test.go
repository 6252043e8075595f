package harness

import (
	"context"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/mpi"
)

func tinyConfig() Config {
	return Config{
		Kernel: kernels.Laplace{}, Distribution: "uniform",
		N: 1500, Grain: 400, Procs: []int{1, 2},
		MaxPoints: 40, Degree: 4,
		Machine: mpi.Machine{Latency: 1000, Bandwidth: 1e9},
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
	csv := CSV(rows)
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 3 {
		t.Errorf("csv rows:\n%s", csv)
	}
}

func TestExperimentsEnumerateAllArtifacts(t *testing.T) {
	ids := map[string]bool{}
	for _, e := range Experiments() {
		ids[e.ID] = true
		if e.Description == "" || e.Run == nil {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	for _, want := range []string{"table4.1", "table4.2", "table4.3", "fig4.2", "fig4.3", "ablation-m2l", "ablation-loadbalance"} {
		if !ids[want] {
			t.Errorf("missing experiment %s", want)
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
// guarantee every artifact regenerates without error.
func TestTinyEndToEndSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("suite run skipped in -short mode")
	}
	sc := Scale{
		FixedN: 1200, FixedProcs: []int{1, 2},
		Grain: 300, IsoProcs: []int{1, 2},
		LargeProcs: 2, LargeGrains: [3]int{200, 300, 300},
		Iterations: 1,
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
}
