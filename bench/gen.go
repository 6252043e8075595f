package main

import (
	"math"
	"math/rand"
)

// The generators live here, not in internal/geom or internal/harness, so
// a later change to library code cannot change a workload: the program
// under test only ever receives the arrays these functions return.

// genUniform draws n points uniformly from [-1,1]^3 (flat x,y,z).
func genUniform(rng *rand.Rand, n int) []float64 {
	p := make([]float64, 3*n)
	for i := range p {
		p[i] = 2*rng.Float64() - 1
	}
	return p
}

// genCorners clusters n points at the eight corners of [-1,1]^3: each
// cluster is a ball of radius spread whose radial profile spread*u^2
// piles most of the mass onto the corner itself, and points that leave
// the cube are clamped onto its faces. The octree over it is deep and
// strongly adaptive (the paper's non-uniform distribution).
func genCorners(rng *rand.Rand, n int, spread float64) []float64 {
	p := make([]float64, 0, 3*n)
	clamp := func(v float64) float64 { return math.Max(-1, math.Min(1, v)) }
	for i := 0; i < n; i++ {
		c := i % 8
		cx, cy, cz := float64(2*(c&1)-1), float64(2*(c>>1&1)-1), float64(2*(c>>2&1)-1)
		u := rng.Float64()
		rad := spread * u * u
		theta := math.Acos(2*rng.Float64() - 1)
		phi := rng.Float64() * 2 * math.Pi
		st, ct := math.Sincos(theta)
		sp, cp := math.Sincos(phi)
		p = append(p, clamp(cx+rad*st*cp), clamp(cy+rad*st*sp), clamp(cz+rad*ct))
	}
	return p
}

// genSphereGrid samples n points from spheres of radius r centred on a
// g x g x g grid in [-1,1]^3 with latitude-longitude sampling, which is
// denser near the poles (the paper's "spheres" distribution).
func genSphereGrid(rng *rand.Rand, n, g int, r float64) []float64 {
	p := make([]float64, 0, 3*n)
	step := 2.0 / float64(g)
	for i := 0; i < n; i++ {
		s := i % (g * g * g)
		cx := -1 + (float64(s%g)+0.5)*step
		cy := -1 + (float64(s/g%g)+0.5)*step
		cz := -1 + (float64(s/(g*g))+0.5)*step
		theta := rng.Float64() * math.Pi
		phi := rng.Float64() * 2 * math.Pi
		st, ct := math.Sincos(theta)
		sp, cp := math.Sincos(phi)
		p = append(p, cx+r*st*cp, cy+r*st*sp, cz+r*ct)
	}
	return p
}

// genDensities draws n density components uniformly from [0,1].
func genDensities(rng *rand.Rand, n int) []float64 {
	d := make([]float64, n)
	for i := range d {
		d[i] = rng.Float64()
	}
	return d
}
