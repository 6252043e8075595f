package fmm

import (
	"math/rand"
	"testing"

	"repro/internal/cpu"
	"repro/internal/geom"
	"repro/internal/kernels"
)

// TestEvaluationSameUnderBothBodies runs an adaptive Laplace evaluation
// on eight corner clusters at degree 6 — U, W and X lists, S2M and L2T
// all doing work — once with the AVX2 bodies (P2P, the dense operator
// matvec, the Hadamard) and once with the Go loops, as a single vector
// and as a batch of two (materialized near-field blocks), and requires
// bitwise-equal potentials.
func TestEvaluationSameUnderBothBodies(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("CPU without AVX2: only the Go bodies run")
	}
	t.Cleanup(func() { cpu.AVX2 = true })
	rng := rand.New(rand.NewSource(29))
	const n = 2000
	pts := geom.Flatten(geom.CornerClusters(rng, n, 0.3, 1))
	e, err := NewCtx(bg, pts, pts, Options{Kernel: kernels.Laplace{}, Degree: 6, MaxPoints: 40})
	if err != nil {
		t.Fatal(err)
	}
	dens := [][]float64{geom.RandomDensities(rng, n, 1), geom.RandomDensities(rng, n, 1)}
	run := func(avx2 bool) (single []float64, batch [][]float64) {
		cpu.AVX2 = avx2
		single, st, err := eval(bg, e, dens[0])
		if err != nil {
			t.Fatal(err)
		}
		if st.FlopsUp == 0 || st.FlopsDownU == 0 || st.FlopsDownW == 0 || st.FlopsDownX == 0 || st.FlopsEval == 0 {
			t.Fatalf("a stage did no work: %+v", st)
		}
		if batch, _, err = e.Evaluate(bg, dens, nil, nil); err != nil {
			t.Fatal(err)
		}
		return single, batch
	}
	vecSingle, vecBatch := run(true)
	goSingle, goBatch := run(false)
	assertBitwise(t, "single vector, AVX2 vs Go bodies", vecSingle, goSingle)
	for q := range goBatch {
		assertBitwise(t, "batch, AVX2 vs Go bodies", vecBatch[q], goBatch[q])
	}
}
