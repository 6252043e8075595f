package parfmm

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/exec"
	"repro/internal/fmm"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/mpi"
)

// TestRankReevaluationIsBitwise: a rank's engine recycles its workspace
// from one evaluation to the next, while the ghost exchange hands it
// other ranks' densities in between; two consecutive evaluations on one
// simulated rank return the same bits.
func TestRankReevaluationIsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	pts := geom.Flatten(geom.CornerClusters(rng, 2000, 0.3, 2))
	k := kernels.Laplace{}
	den := geom.RandomDensities(rng, len(pts)/3, k.SourceDim())
	const nproc = 3
	eo, err := Options{Options: fmm.Options{Kernel: k, Degree: 4, MaxPoints: 40}}.engine()
	if err != nil {
		t.Fatal(err)
	}
	inputs := PartitionPoints(pts, den, k.SourceDim(), nproc)
	rankErr := make([]error, nproc)
	mpi.Run(nproc, fastMachine(), func(c *mpi.Comm) {
		ro := eo
		ro.Workers, ro.Pool = 1, exec.NewElastic(1)
		rk := newRank(c, inputs[c.Rank()], ro, false)
		rankErr[c.Rank()] = func() error {
			if err := rk.prepare(context.Background()); err != nil {
				return err
			}
			defer rk.eng.Close()
			var pots [2][]float64
			for i := range pots {
				if _, err := rk.evaluate(context.Background(), "iteration"); err != nil {
					return err
				}
				pots[i] = rk.pot
			}
			for i := range pots[0] {
				if math.Float64bits(pots[1][i]) != math.Float64bits(pots[0][i]) {
					return fmt.Errorf("rank %d: second evaluation differs at %d: %v vs %v", c.Rank(), i, pots[1][i], pots[0][i])
				}
			}
			return nil
		}()
	})
	for _, err := range rankErr {
		if err != nil {
			t.Error(err)
		}
	}
}
