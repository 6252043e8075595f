package kernels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cpu"
)

func randomCloud(rng *rand.Rand, n int) []float64 {
	p := make([]float64, 3*n)
	for i := range p {
		p[i] = rng.NormFloat64()
	}
	return p
}

func TestP2PSpecializationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range allKernels() {
		nt, ns := 13, 17
		trg := randomCloud(rng, nt)
		src := randomCloud(rng, ns)
		den := make([]float64, ns*k.SourceDim())
		for i := range den {
			den[i] = rng.NormFloat64()
		}
		fast := make([]float64, nt*k.TargetDim())
		slow := make([]float64, nt*k.TargetDim())
		p2p(k, trg, src, den, fast)
		genericP2P(k, trg, src, [][]float64{den}, [][]float64{slow}, nil)
		for i := range fast {
			if math.Abs(fast[i]-slow[i]) > 1e-12*(math.Abs(slow[i])+1) {
				t.Fatalf("%s: specialized P2P disagrees at %d: %v vs %v", k.Name(), i, fast[i], slow[i])
			}
		}
	}
}

// p2p accumulates one density vector's direct interaction into pot.
func p2p(k Kernel, trg, src, den, pot []float64) {
	P2P(k, trg, src, [][]float64{den}, [][]float64{pot}, nil)
}

// TestP2PBatchIsItsVectors: every right-hand side of a batch ends bit for
// bit as a call with it alone leaves it, for batches shorter and longer
// than rhsBlock, with a coincident point and potentials that do not
// start at zero.
func TestP2PBatchIsItsVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range allKernels() {
		for _, nrhs := range []int{1, 2, 4, 5, 9} {
			nt, ns := 11, 14
			sd, td := k.SourceDim(), k.TargetDim()
			trg := randomCloud(rng, nt)
			src := append(randomCloud(rng, ns-1), trg[0], trg[1], trg[2])
			dens := make([][]float64, nrhs)
			pots := make([][]float64, nrhs)
			want := make([][]float64, nrhs)
			for q := range dens {
				dens[q] = randomCloud(rng, ns*sd)[:ns*sd]
				pots[q] = randomCloud(rng, nt*td)[:nt*td]
				want[q] = append([]float64(nil), pots[q]...)
				p2p(k, trg, src, dens[q], want[q])
			}
			P2P(k, trg, src, dens, pots, make([]float64, sd*td))
			for q := range pots {
				for i := range pots[q] {
					if math.Float64bits(pots[q][i]) != math.Float64bits(want[q][i]) {
						t.Fatalf("%s nrhs=%d: pots[%d][%d] = %v, alone %v", k.Name(), nrhs, q, i, pots[q][i], want[q][i])
					}
				}
			}
		}
	}
}

// bodyCases calls run with the inputs the vector-body tests hold the
// AVX2 bodies to their Go loops on: every target and source count from 0
// to 40 (full blocks of four and every tail) and a 200×200 leaf pair per
// scale. Coordinates are drawn at scales of 1e±150 and beyond, where r2
// overflows to +Inf or underflows to 0 between distinct points; half of
// the small cases mix NaN, ±Inf and ±0 into about one coordinate in 16
// and ±0, subnormal, +Inf and NaN into about one density component in
// four. Every case has a source on a target: the r2 == 0 pair both bodies
// skip. dens draws n density components.
func bodyCases(rng *rand.Rand, run func(name string, trg, src []float64, dens func(n int) []float64)) {
	coordSpecial := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	denSpecial := []float64{0, math.Copysign(0, -1), 5e-324, -4.9e-322, 2.2e-308, math.Inf(1), math.NaN()}
	scales := []float64{1, 1e150, 1e-150, 1e160, 1e-170}
	one := func(nt, ns int, scale float64, special bool) {
		cloud := func(n int) []float64 {
			p := make([]float64, 3*n)
			for i := range p {
				p[i] = scale * rng.NormFloat64()
				if special && rng.Intn(16) == 0 {
					p[i] = coordSpecial[rng.Intn(len(coordSpecial))]
				}
			}
			return p
		}
		dens := func(n int) []float64 {
			d := make([]float64, n)
			for j := range d {
				d[j] = rng.NormFloat64()
				if special && rng.Intn(4) == 0 {
					d[j] = denSpecial[rng.Intn(len(denSpecial))]
				}
			}
			return d
		}
		trg, src := cloud(nt), cloud(ns)
		if nt > 0 && ns > 0 {
			i, j := rng.Intn(nt), rng.Intn(ns)
			copy(src[3*j:3*j+3], trg[3*i:3*i+3])
		}
		run(fmt.Sprintf("nt=%d ns=%d scale=%g special=%v", nt, ns, scale, special), trg, src, dens)
	}
	for nt := 0; nt <= 40; nt++ {
		for ns := 0; ns <= 40; ns++ {
			one(nt, ns, scales[rng.Intn(len(scales))], rng.Intn(2) == 0)
		}
	}
	for _, scale := range scales {
		one(200, 200, scale, false)
	}
}

// checkBodies runs one P2P call on the Go loops (want) and one on the
// AVX2 bodies (pots) and requires equal bits in every element, including
// the three sentinel elements after each potential, which a store past
// its end would change.
func checkBodies(t *testing.T, rng *rand.Rand, name string, k Kernel, trg, src []float64, dens [][]float64) {
	t.Helper()
	const tail = 3
	n := len(trg) / 3 * k.TargetDim()
	pots, want := make([][]float64, len(dens)), make([][]float64, len(dens))
	for q := range pots {
		pots[q] = make([]float64, n+tail)
		for i := range pots[q] {
			pots[q][i] = rng.NormFloat64()
		}
		want[q] = append([]float64(nil), pots[q]...)
	}
	views := func(p [][]float64) [][]float64 {
		v := make([][]float64, len(p))
		for q := range p {
			v[q] = p[q][:n]
		}
		return v
	}
	cpu.AVX2 = false
	P2P(k, trg, src, dens, views(want), nil)
	cpu.AVX2 = true
	P2P(k, trg, src, dens, views(pots), nil)
	for q := range pots {
		for i, v := range pots[q] {
			if w := want[q][i]; !sameFloatBits(v, w) {
				t.Fatalf("%s %s nrhs=%d: pots[%d][%d] = %v (%#x), Go loop %v (%#x)",
					k.Name(), name, len(dens), q, i, v, math.Float64bits(v), w, math.Float64bits(w))
			}
		}
	}
}

// TestLaplaceP2PBodiesAgree holds laplaceP2P's AVX2 body to its Go loop
// bit for bit on bodyCases. An FMA, a reciprocal square-root estimate, a
// re-association, a wrong r2 == 0 mask or a store past the end of a
// potential fails it.
func TestLaplaceP2PBodiesAgree(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("CPU without AVX2: laplaceP2P runs only the Go body")
	}
	t.Cleanup(func() { cpu.AVX2 = true })
	rng := rand.New(rand.NewSource(29))
	bodyCases(rng, func(name string, trg, src []float64, dens func(int) []float64) {
		checkBodies(t, rng, name, Laplace{}, trg, src, [][]float64{dens(len(src) / 3)})
	})
}

// TestStokesP2PBodiesAgree holds stokesP2P's AVX2 body to its Go loop bit
// for bit on bodyCases, in batches of 1, 2, 4, 5 and 9 right-hand sides:
// whole rhsBlock sweeps and every shorter last one. An FMA, a reciprocal
// estimate, a re-association, a wrong r2 == 0 mask, a vector reading
// another's densities or sums, or a store past the end of a potential
// fails it.
func TestStokesP2PBodiesAgree(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("CPU without AVX2: stokesP2P runs only the Go body")
	}
	t.Cleanup(func() { cpu.AVX2 = true })
	k := NewStokes(0.7)
	rng := rand.New(rand.NewSource(31))
	bodyCases(rng, func(name string, trg, src []float64, dens func(int) []float64) {
		for _, nrhs := range []int{1, 2, 4, 5, 9} {
			d := make([][]float64, nrhs)
			for q := range d {
				d[q] = dens(len(src)) // three components per source
			}
			checkBodies(t, rng, name, k, trg, src, d)
		}
	})
}

// TestP2PAllocatesNothing: the Laplace vector body keeps its block
// buffers on the stack, the Stokes and modified Laplace loops their sums,
// and a generic kernel evaluates into the caller's block.
func TestP2PAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	trg, src := randomCloud(rng, 37), randomCloud(rng, 41)
	for _, k := range allKernels() {
		for _, nrhs := range []int{1, 4} {
			dens, pots := make([][]float64, nrhs), make([][]float64, nrhs)
			for q := range dens {
				dens[q], pots[q] = make([]float64, 41*k.SourceDim()), make([]float64, 37*k.TargetDim())
			}
			block := make([]float64, k.SourceDim()*k.TargetDim())
			if a := testing.AllocsPerRun(10, func() { P2P(k, trg, src, dens, pots, block) }); a != 0 {
				t.Errorf("%s P2P of %d right-hand sides allocates %v times per call", k.Name(), nrhs, a)
			}
		}
	}
}

// sameFloatBits is bitwise equality, with any two NaNs equal: the payload
// of a NaN combined with another NaN depends on operand order, which the
// Go compiler picks for commutative operations as register allocation
// falls.
func sameFloatBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

func TestP2PAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	k := Laplace{}
	trg := randomCloud(rng, 4)
	src := randomCloud(rng, 5)
	den := []float64{1, 2, 3, 4, 5}
	pot := []float64{10, 20, 30, 40}
	once := make([]float64, 4)
	p2p(k, trg, src, den, once)
	p2p(k, trg, src, den, pot)
	for i := range pot {
		want := once[i] + float64(10*(i+1))
		if math.Abs(pot[i]-want) > 1e-12 {
			t.Errorf("P2P must accumulate: pot[%d]=%v want %v", i, pot[i], want)
		}
	}
}

func TestP2PSkipsSelfInteraction(t *testing.T) {
	for _, k := range allKernels() {
		pts := []float64{0.5, -0.25, 0.125}
		den := make([]float64, k.SourceDim())
		for i := range den {
			den[i] = 1
		}
		pot := make([]float64, k.TargetDim())
		p2p(k, pts, pts, den, pot)
		for i, v := range pot {
			if !(v == 0) || math.IsNaN(v) {
				t.Errorf("%s: self interaction leaked: pot[%d]=%v", k.Name(), i, v)
			}
		}
	}
}

func TestMatrixMatchesP2P(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, k := range allKernels() {
		nt, ns := 6, 9
		sd, td := k.SourceDim(), k.TargetDim()
		trg := randomCloud(rng, nt)
		src := randomCloud(rng, ns)
		den := make([]float64, ns*sd)
		for i := range den {
			den[i] = rng.NormFloat64()
		}
		mat := make([]float64, nt*td*ns*sd)
		Matrix(k, trg, src, mat)
		viaMat := make([]float64, nt*td)
		cols := ns * sd
		for r := 0; r < nt*td; r++ {
			s := 0.0
			for c := 0; c < cols; c++ {
				s += mat[r*cols+c] * den[c]
			}
			viaMat[r] = s
		}
		direct := make([]float64, nt*td)
		p2p(k, trg, src, den, direct)
		for i := range direct {
			if math.Abs(direct[i]-viaMat[i]) > 1e-12*(math.Abs(direct[i])+1) {
				t.Fatalf("%s: Matrix path disagrees with P2P at %d", k.Name(), i)
			}
		}
	}
}

func TestP2PFlopsPositive(t *testing.T) {
	for _, k := range allKernels() {
		if P2PFlops(k, 10, 20) <= 0 {
			t.Errorf("%s: flop estimate must be positive", k.Name())
		}
	}
	if P2PFlops(Laplace{}, 0, 100) != 0 {
		t.Error("zero targets must cost zero flops")
	}
	if P2PFlops(Laplace{}, 10, 10) >= P2PFlops(NewStokes(1), 10, 10) {
		t.Error("a Stokes pair must cost more flops than a Laplace pair")
	}
}

func BenchmarkP2PLaplace(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	trg := randomCloud(rng, 100)
	src := randomCloud(rng, 100)
	den := make([]float64, 100)
	pot := make([]float64, 100)
	for i := range den {
		den[i] = rng.Float64()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p2p(Laplace{}, trg, src, den, pot)
	}
}

func BenchmarkP2PStokes(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	trg := randomCloud(rng, 100)
	src := randomCloud(rng, 100)
	den := make([]float64, 300)
	pot := make([]float64, 300)
	for i := range den {
		den[i] = rng.Float64()
	}
	// One interface value for the whole loop: converting the Stokes struct
	// to a Kernel allocates, P2P does not.
	var k Kernel = NewStokes(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p2p(k, trg, src, den, pot)
	}
}

// BenchmarkP2PStokesBatch4 is one 100×100 pair with four right-hand
// sides in one call, against four calls of BenchmarkP2PStokes.
func BenchmarkP2PStokesBatch4(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	trg := randomCloud(rng, 100)
	src := randomCloud(rng, 100)
	dens, pots := make([][]float64, 4), make([][]float64, 4)
	for q := range dens {
		dens[q], pots[q] = randomCloud(rng, 100), make([]float64, 300)
	}
	var k Kernel = NewStokes(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		P2P(k, trg, src, dens, pots, nil)
	}
}
