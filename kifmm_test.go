package kifmm

import (
	"context"
	"errors"
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

// TestEvaluateParallelInvalidInput: every argument EvaluateParallel
// rejects comes back typed, as errors.go promises of the public API.
func TestEvaluateParallelInvalidInput(t *testing.T) {
	patches := CornerPatches(3, 200, 0.35)
	den := RandomDensities(4, 200, 1)
	opt := ParallelOptions{Options: Options{Kernel: Laplace(), Degree: 4}}
	for _, tc := range []struct {
		name  string
		den   []float64
		nproc int
		opt   ParallelOptions
	}{
		{"no ranks", den, 0, opt},
		{"density length", den[:199], 2, opt},
		{"patch weights length", den, 2, ParallelOptions{Options: opt.Options, PatchWeights: []int64{1}}},
		{"nil kernel", den, 2, ParallelOptions{Options: Options{Degree: 4}}},
	} {
		if _, err := EvaluateParallel(patches, tc.den, tc.nproc, tc.opt); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s: err = %v, want ErrInvalidInput", tc.name, err)
		}
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

// TestNewEvaluatorRejectsNonFinite: a NaN or infinite coordinate, or
// points spread too far for a finite domain, is invalid input, not a plan
// that returns garbage. Finite points whose squared distances overflow
// (400 uniform points scaled by 1e155 or 1e160) would answer zeros; at
// 1e150 every squared distance is finite and the plan evaluates.
func TestNewEvaluatorRejectsNonFinite(t *testing.T) {
	pts := FlattenPatches(UniformPatches(25, 200))
	opt := Options{Kernel: Laplace(), Degree: 4, Workers: 1}
	scaled := func(s float64) []float64 {
		p := FlattenPatches(UniformPatches(25, 400))
		for i := range p {
			p[i] *= s
		}
		return p
	}
	den := make([]float64, 400)
	for i := range den {
		den[i] = 1
	}
	var pots [2][]float64
	for i, s := range []float64{1, 1e150, 1e155, 1e160} {
		p := scaled(s)
		ev, err := NewEvaluatorCtx(context.Background(), p, p, opt)
		if s > 1e150 {
			if code, _ := ErrorCodeOf(err); code != CodeInvalidInput {
				t.Errorf("points scaled by %g: err = %v (code %q), want %q", s, err, code, CodeInvalidInput)
			}
			continue
		}
		if err != nil {
			t.Fatalf("points scaled by %g: %v", s, err)
		}
		defer ev.Close()
		if pots[i], err = ev.EvaluateCtx(context.Background(), den); err != nil {
			t.Fatal(err)
		}
	}
	for i := range pots[1] {
		pots[1][i] *= 1e150 // Laplace is homogeneous of degree -1
	}
	if e := rel(pots[1], pots[0]); !(e < 1e-9) {
		t.Errorf("points scaled by 1e150: scaled-back potentials differ from the unit ones by %.3g", e)
	}
	for _, tc := range []struct {
		name string
		set  map[int]float64 // coordinate index -> value
	}{
		{"NaN", map[int]float64{7: math.NaN()}},
		{"+Inf", map[int]float64{0: math.Inf(1)}},
		{"-Inf", map[int]float64{599: math.Inf(-1)}},
		{"overflowing spread", map[int]float64{1: math.MaxFloat64, 4: -math.MaxFloat64}},
	} {
		bad := append([]float64(nil), pts...)
		for i, v := range tc.set {
			bad[i] = v
		}
		_, err := NewEvaluatorCtx(context.Background(), bad, bad, opt)
		if code, _ := ErrorCodeOf(err); code != CodeInvalidInput {
			t.Errorf("%s sources: err = %v (code %q), want %q", tc.name, err, code, CodeInvalidInput)
		}
		_, err = NewEvaluatorCtx(context.Background(), pts, bad, opt)
		if code, _ := ErrorCodeOf(err); code != CodeInvalidInput {
			t.Errorf("%s targets: err = %v (code %q), want %q", tc.name, err, code, CodeInvalidInput)
		}
	}
}

// TestDirectRejectsNonFinite: the reference summation applies the plan's
// input rule. Points whose squared distances overflow (400 uniform points
// scaled by 1e155 or 1e160) would sum to zeros, and a NaN or infinite
// coordinate to garbage; all are invalid input. At 1e150 it answers the
// unit potentials scaled back.
func TestDirectRejectsNonFinite(t *testing.T) {
	unit := FlattenPatches(UniformPatches(25, 400))
	den := make([]float64, 400)
	for i := range den {
		den[i] = 1
	}
	want, err := Direct(Laplace(), unit, unit, den)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{1e150, 1e155, 1e160} {
		p := append([]float64(nil), unit...)
		for i := range p {
			p[i] *= s
		}
		pot, err := Direct(Laplace(), p, p, den)
		if s > 1e150 {
			if code, _ := ErrorCodeOf(err); code != CodeInvalidInput {
				t.Errorf("points scaled by %g: err = %v (code %q), want %q", s, err, code, CodeInvalidInput)
			}
			continue
		}
		if err != nil {
			t.Fatalf("points scaled by %g: %v", s, err)
		}
		for i := range pot {
			pot[i] *= s // Laplace is homogeneous of degree -1
		}
		if e := rel(pot, want); !(e < 1e-12) {
			t.Errorf("points scaled by %g: scaled-back potentials differ from the unit ones by %.3g", s, e)
		}
	}
	for name, v := range map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)} {
		bad := append([]float64(nil), unit...)
		bad[301] = v
		if _, err := Direct(Laplace(), bad, unit, den); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s target coordinate: err = %v, want invalid input", name, err)
		}
		if _, err := Direct(Laplace(), unit, bad, den); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("%s source coordinate: err = %v, want invalid input", name, err)
		}
	}
	if _, err := Direct(Laplace(), unit, unit, den[1:]); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("short density: err = %v, want invalid input", err)
	}
}
