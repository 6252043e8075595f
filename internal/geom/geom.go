// Package geom generates the particle distributions used in the paper's
// evaluation (Section 4) and provides the surface-patch abstraction that
// the parallel partitioner operates on.
//
// The paper samples particles from input surfaces: the first set samples
// 512 spheres centered on an 8x8x8 Cartesian grid in the cube [-1,1]^3;
// the second is a non-uniform set clustered at the eight corners of the
// cube. Densities are drawn uniformly from [0, 1].
package geom

import (
	"errors"
	"math"
	"math/rand"
)

// Patch is a group of particles sampled from one input surface patch. The
// parallel partitioner (paper Section 3.1) assigns whole patches to
// processors by Morton order of their centers, weighted by Count.
type Patch struct {
	// Center is the patch center used as its Morton partitioning key.
	Center [3]float64
	// Points holds the flat (x,y,z,...) coordinates of the patch samples.
	Points []float64
}

// Count returns the number of particles in the patch.
func (p *Patch) Count() int { return len(p.Points) / 3 }

// SphereGrid samples n particles (total, as evenly as possible) from
// spheres of radius r centered on a g x g x g Cartesian grid inside
// [-1,1]^3, returning one patch per sphere. With g=8 this is the paper's
// "512 spheres" distribution: approximately uniform at low sampling
// rates, locally non-uniform at high rates because the spherical
// sampling concentrates points near the poles.
func SphereGrid(rng *rand.Rand, n, g int, r float64) []Patch {
	spheres := g * g * g
	patches := make([]Patch, 0, spheres)
	per := n / spheres
	extra := n % spheres
	// Grid spacing: centers at -1 + (i+0.5)*2/g in each dimension.
	step := 2.0 / float64(g)
	idx := 0
	for i := 0; i < g; i++ {
		for j := 0; j < g; j++ {
			for k := 0; k < g; k++ {
				m := per
				if idx < extra {
					m++
				}
				idx++
				c := [3]float64{
					-1 + (float64(i)+0.5)*step,
					-1 + (float64(j)+0.5)*step,
					-1 + (float64(k)+0.5)*step,
				}
				patches = append(patches, Patch{Center: c, Points: sampleSphere(rng, c, r, m)})
			}
		}
	}
	return patches
}

// sampleSphere places m points on the sphere of radius r around c using
// latitude-longitude sampling. Like the paper's sampler it is non-uniform
// over the sphere (denser near the poles), which is what produces the
// per-processor non-uniformity at high sampling rates.
func sampleSphere(rng *rand.Rand, c [3]float64, r float64, m int) []float64 {
	pts := make([]float64, 0, 3*m)
	for i := 0; i < m; i++ {
		theta := rng.Float64() * math.Pi
		phi := rng.Float64() * 2 * math.Pi
		st, ct := math.Sincos(theta)
		sp, cp := math.Sincos(phi)
		pts = append(pts,
			c[0]+r*st*cp,
			c[1]+r*st*sp,
			c[2]+r*ct,
		)
	}
	return pts
}

// CornerClusters generates the paper's second particle set: n particles
// clustered at the eight corners of the cube [-1,1]^3. Each cluster is a
// ball of radius spread with an r^3-concentrated radial profile, giving a
// strongly non-uniform octree. One patch per corner octant slice is
// returned (8*slices patches) so the partitioner has enough granularity.
func CornerClusters(rng *rand.Rand, n int, spread float64, slices int) []Patch {
	if slices < 1 {
		slices = 1
	}
	corners := [8][3]float64{
		{-1, -1, -1}, {1, -1, -1}, {-1, 1, -1}, {1, 1, -1},
		{-1, -1, 1}, {1, -1, 1}, {-1, 1, 1}, {1, 1, 1},
	}
	patches := make([]Patch, 0, 8*slices)
	total := 0
	for ci, c := range corners {
		for s := 0; s < slices; s++ {
			m := n/(8*slices) + boolInt(ci*slices+s < n%(8*slices))
			total += m
			pts := make([]float64, 0, 3*m)
			for i := 0; i < m; i++ {
				// Radius concentrated toward the corner: r = spread * u^2
				// puts most mass very close to the corner point.
				u := rng.Float64()
				rad := spread * u * u
				theta := math.Acos(2*rng.Float64() - 1)
				phi := rng.Float64() * 2 * math.Pi
				st, ct := math.Sincos(theta)
				sp, cp := math.Sincos(phi)
				pts = append(pts,
					clamp(c[0]+rad*st*cp, -1, 1),
					clamp(c[1]+rad*st*sp, -1, 1),
					clamp(c[2]+rad*ct, -1, 1),
				)
			}
			patches = append(patches, Patch{Center: c, Points: pts})
		}
	}
	if total != n {
		panic("geom: corner cluster count mismatch")
	}
	return patches
}

// UniformCube draws n particles uniformly from [-1,1]^3 as a single
// patch. It is used by unit tests and by accuracy studies that need a
// distribution-independent reference.
func UniformCube(rng *rand.Rand, n int) []Patch {
	pts := make([]float64, 3*n)
	for i := range pts {
		pts[i] = 2*rng.Float64() - 1
	}
	return []Patch{{Center: [3]float64{0, 0, 0}, Points: pts}}
}

// RandomDensities draws count*dim density components uniformly from
// [0,1], matching the paper's setup ("densities are chosen randomly from
// [0,1]").
func RandomDensities(rng *rand.Rand, count, dim int) []float64 {
	d := make([]float64, count*dim)
	for i := range d {
		d[i] = rng.Float64()
	}
	return d
}

// Flatten concatenates the points of all patches into one flat slice.
func Flatten(patches []Patch) []float64 {
	n := 0
	for i := range patches {
		n += len(patches[i].Points)
	}
	out := make([]float64, 0, n)
	for i := range patches {
		out = append(out, patches[i].Points...)
	}
	return out
}

// TotalCount returns the number of particles across all patches.
func TotalCount(patches []Patch) int {
	n := 0
	for i := range patches {
		n += patches[i].Count()
	}
	return n
}

// BoundingCube returns the center and half-width of the smallest axis-
// aligned cube centered on the point cloud's bounding-box center that
// contains every point, padded by a small factor so no point lies exactly
// on the domain boundary.
func BoundingCube(pts []float64) (center [3]float64, halfWidth float64) {
	lo, hi, _ := Bounds(pts)
	return Cube(lo, hi)
}

// Bounds returns the per-axis minimum and maximum over the points of the
// sets (flat x,y,z slices), taken in order, and whether every coordinate
// is finite. A NaN coordinate widens nothing; with no points lo is +Inf
// and hi is -Inf.
func Bounds(sets ...[]float64) (lo, hi [3]float64, finite bool) {
	lo = [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi = [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	finite = true
	for _, pts := range sets {
		for i := 0; i+2 < len(pts); i += 3 {
			for d := 0; d < 3; d++ {
				v := pts[i+d]
				if v < lo[d] {
					lo[d] = v
				}
				if v > hi[d] {
					hi[d] = v
				}
				if v-v != 0 { // NaN or ±Inf
					finite = false
				}
			}
		}
	}
	return lo, hi, finite
}

// Cube is the domain rule: the cube centered on the box [lo, hi] whose
// half-width is the box's largest half-extent — 1 when that is zero (the
// points coincide) — padded by a factor 1+1e-10. An empty box (lo > hi,
// no points) gives the unit cube at the origin.
func Cube(lo, hi [3]float64) (center [3]float64, halfWidth float64) {
	if lo[0] > hi[0] {
		return [3]float64{}, 1
	}
	for d := 0; d < 3; d++ {
		center[d] = (lo[d] + hi[d]) / 2
		if w := (hi[d] - lo[d]) / 2; w > halfWidth {
			halfWidth = w
		}
	}
	if halfWidth == 0 {
		halfWidth = 1
	}
	return center, halfWidth * (1 + 1e-10)
}

// CheckDomain is the input rule of the domain: every coordinate finite
// (finite as Bounds reports it), and the squared diagonal (2√3·hw)² of
// the cube of half-width hw that Cube builds finite, since past it the
// kernels' squared pair distances overflow and those pairs interact as
// zero.
func CheckDomain(finite bool, hw float64) error {
	if !finite {
		return errors.New("coordinates must be finite, got NaN or ±Inf")
	}
	if math.IsInf(12*hw*hw, 0) {
		return errors.New("points spread too far: the domain's squared diameter overflows float64")
	}
	return nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
