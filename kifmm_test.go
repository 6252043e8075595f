package kifmm

import (
	"context"
	"math"
	"testing"
)

func TestPublicAPISequential(t *testing.T) {
	patches := SpherePatches(1, 2000, 3, 0.25)
	pts := FlattenPatches(patches)
	den := RandomDensities(2, 2000, 1)
	ev, err := NewEvaluatorCtx(context.Background(), pts, pts, Options{Kernel: Laplace(), Degree: 6, MaxPoints: 40})
	if err != nil {
		t.Fatal(err)
	}
	pots, st, _, err := ev.EvaluateBatchTracedCtx(context.Background(), [][]float64{den})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Direct(Laplace(), pts, pts, den)
	if err != nil {
		t.Fatal(err)
	}
	if e := rel(pots[0], want); e > 2e-3 {
		t.Errorf("public API error %v", e)
	}
	if ev.Boxes() <= 1 || ev.Depth() < 2 {
		t.Errorf("implausible tree: %d boxes depth %d", ev.Boxes(), ev.Depth())
	}
	if st.Total() <= 0 {
		t.Error("stats not recorded")
	}
}

func TestPublicAPIParallel(t *testing.T) {
	patches := CornerPatches(3, 1500, 0.35)
	den := RandomDensities(4, 1500, 3)
	res, err := EvaluateParallel(patches, den, 3, ParallelOptions{
		Options: Options{Kernel: Stokes(1), Degree: 6, MaxPoints: 30},
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := FlattenPatches(patches)
	want, err := Direct(Stokes(1), pts, pts, den)
	if err != nil {
		t.Fatal(err)
	}
	if e := rel(res.Pot, want); e > 2e-3 {
		t.Errorf("parallel public API error %v", e)
	}
}

func TestKernelByNamePublic(t *testing.T) {
	for _, n := range []string{"laplace", "modlaplace", "stokes"} {
		k, err := KernelByName(n)
		if err != nil || k.Name() != n {
			t.Errorf("KernelByName(%q) = %v, %v", n, k, err)
		}
	}
	if _, err := KernelByName("nope"); err == nil {
		t.Error("unknown kernel must error")
	}
}

func TestDistributionsShape(t *testing.T) {
	sp := SpherePatches(1, 1000, 8, 0.1)
	if len(sp) != 512 {
		t.Errorf("8x8x8 grid must give 512 patches, got %d", len(sp))
	}
	cp := CornerPatches(1, 800, 0.3)
	if got := len(FlattenPatches(cp)) / 3; got != 800 {
		t.Errorf("corner patches lost points: %d", got)
	}
	up := UniformPatches(1, 100)
	pts := FlattenPatches(up)
	for _, v := range pts {
		if v < -1 || v > 1 {
			t.Fatalf("uniform point outside cube: %v", v)
		}
	}
	den := RandomDensities(1, 10, 3)
	if len(den) != 30 {
		t.Errorf("densities length %d", len(den))
	}
	for _, v := range den {
		if v < 0 || v > 1 {
			t.Errorf("density %v outside [0,1]", v)
		}
	}
}

func rel(got, want []float64) float64 {
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
