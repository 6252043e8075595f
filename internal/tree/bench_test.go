package tree

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// BenchmarkBuild builds the trees of the three library workload shapes
// of the repository benchmark: uniform points at the FFT workload's
// size, the eight-corner clusters of the adaptive one (depth 22) and the
// sphere grid of the Stokes batch. Run it with -benchmem: the sort and
// list scratch must not grow the bytes a build allocates.
func BenchmarkBuild(b *testing.B) {
	shapes := []struct {
		name string
		pts  []float64
		s    int
	}{
		{"uniform12k_s60", geom.Flatten(geom.UniformCube(rand.New(rand.NewSource(1)), 12000)), 60},
		{"corners24k_s200", geom.Flatten(geom.CornerClusters(rand.New(rand.NewSource(1)), 24000, 0.1, 1)), 200},
		{"sphere3k_s60", geom.Flatten(geom.SphereGrid(rand.New(rand.NewSource(1)), 3000, 2, 0.3)), 60},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := BuildCtx(context.Background(), sh.pts, sh.pts, Config{MaxPoints: sh.s}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
