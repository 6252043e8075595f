package barneshut

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/direct"
	"repro/internal/geom"
	"repro/internal/kernels"
)

func relErr(got, want []float64) float64 {
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

func TestTreecodeAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := geom.Flatten(geom.UniformCube(rng, 1500))
	den := geom.RandomDensities(rng, 1500, 1)
	want, err := direct.Evaluate(kernels.Laplace{}, pts, pts, den)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := New(context.Background(), pts, Options{Kernel: kernels.Laplace{}, Theta: 0.6, Degree: 6, MaxPoints: 30})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.Evaluate(den)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(got, want); e > 2e-3 {
		t.Errorf("treecode error %v", e)
	}
}

func TestThetaControlsAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pts := geom.Flatten(geom.UniformCube(rng, 1200))
	den := geom.RandomDensities(rng, 1200, 1)
	want, _ := direct.Evaluate(kernels.Laplace{}, pts, pts, den)
	var errs []float64
	for _, theta := range []float64{1.2, 0.6, 0.3} {
		ev, err := New(context.Background(), pts, Options{Kernel: kernels.Laplace{}, Theta: theta, Degree: 6, MaxPoints: 30})
		if err != nil {
			t.Fatal(err)
		}
		got, err := ev.Evaluate(den)
		if err != nil {
			t.Fatal(err)
		}
		errs = append(errs, relErr(got, want))
	}
	if !(errs[0] >= errs[1] && errs[1] >= errs[2]) {
		t.Errorf("error must not grow as theta shrinks: %v", errs)
	}
}

func TestTreecodeTensorKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := geom.Flatten(geom.CornerClusters(rng, 900, 0.35, 1))
	den := geom.RandomDensities(rng, 900, 3)
	want, _ := direct.Evaluate(kernels.NewStokes(1), pts, pts, den)
	ev, err := New(context.Background(), pts, Options{Kernel: kernels.NewStokes(1), Theta: 0.5, Degree: 6, MaxPoints: 25})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.Evaluate(den)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(got, want); e > 2e-3 {
		t.Errorf("Stokes treecode error %v", e)
	}
}

func TestSmallInputFallsBackToDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	pts := geom.Flatten(geom.UniformCube(rng, 40))
	den := geom.RandomDensities(rng, 40, 1)
	ev, err := New(context.Background(), pts, Options{Kernel: kernels.Laplace{}, MaxPoints: 60})
	if err != nil {
		t.Fatal(err)
	}
	got, err := ev.Evaluate(den)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := direct.Evaluate(kernels.Laplace{}, pts, pts, den)
	if e := relErr(got, want); e > 1e-12 {
		t.Errorf("root-leaf treecode must be exact: %v", e)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(context.Background(), nil, Options{}); err == nil {
		t.Error("missing kernel must error")
	}
	if _, err := New(context.Background(), nil, Options{Kernel: kernels.Laplace{}, Theta: -1}); err == nil {
		t.Error("negative theta must error")
	}
	ev, err := New(context.Background(), []float64{0, 0, 0}, Options{Kernel: kernels.Laplace{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Evaluate([]float64{1, 2}); err == nil {
		t.Error("wrong density length must error")
	}
}
