package fmm

import (
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/kernels"
)

// TestEvaluationSameUnderBothBodies runs adaptive evaluations on eight
// corner clusters — U, W and X lists, S2M and L2T all doing work — once
// with the AVX2 bodies (P2P, the dense operator applies, the Hadamard)
// and once with the Go loops, as a single vector and as a batch, and
// requires bitwise-equal potentials: Laplace at degree 6 with a batch of
// two, and Stokes at degree 4 with a batch of four, whose P2P sweeps and
// operator applies take all four vectors at once.
func TestEvaluationSameUnderBothBodies(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("CPU without AVX2: only the Go bodies run")
	}
	t.Cleanup(func() { cpu.AVX2 = true })
	rng := rand.New(rand.NewSource(29))
	for _, c := range []struct {
		k               kernels.Kernel
		n, degree, nrhs int
	}{
		{kernels.Laplace{}, 2000, 6, 2},
		{kernels.NewStokes(1), 1000, 4, 4},
	} {
		pts := geom.Flatten(geom.CornerClusters(rng, c.n, 0.3, 1))
		e, err := NewCtx(bg, pts, pts, Options{Kernel: c.k, Degree: c.degree, MaxPoints: 40})
		if err != nil {
			t.Fatal(err)
		}
		dens := make([][]float64, c.nrhs)
		for q := range dens {
			dens[q] = geom.RandomDensities(rng, c.n, c.k.SourceDim())
		}
		run := func(avx2 bool) (single []float64, batch [][]float64) {
			cpu.AVX2 = avx2
			single, st, err := eval(bg, e, dens[0])
			if err != nil {
				t.Fatal(err)
			}
			if st.FlopsUp == 0 || st.FlopsDownU == 0 || st.FlopsDownW == 0 || st.FlopsDownX == 0 || st.FlopsEval == 0 {
				t.Fatalf("%s: a stage did no work: %+v", c.k.Name(), st)
			}
			if batch, _, err = e.Evaluate(bg, dens, nil, nil); err != nil {
				t.Fatal(err)
			}
			return single, batch
		}
		vecSingle, vecBatch := run(true)
		goSingle, goBatch := run(false)
		assertBitwise(t, c.k.Name()+" single vector, AVX2 vs Go bodies", vecSingle, goSingle)
		for q := range goBatch {
			assertBitwise(t, c.k.Name()+" batch, AVX2 vs Go bodies", vecBatch[q], goBatch[q])
		}
		e.Close()
	}
}
