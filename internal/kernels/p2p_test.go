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
		P2P(k, trg, src, den, fast)
		GenericP2P(k, trg, src, den, slow)
		for i := range fast {
			if math.Abs(fast[i]-slow[i]) > 1e-12*(math.Abs(slow[i])+1) {
				t.Fatalf("%s: specialized P2P disagrees at %d: %v vs %v", k.Name(), i, fast[i], slow[i])
			}
		}
	}
}

// TestMatrixSpecializationsAgree: the unrolled matrix fills must be
// bitwise identical to the generic Eval path (they write the same
// expression Eval computes).
func TestMatrixSpecializationsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, k := range allKernels() {
		nt, ns := 11, 14
		trg := randomCloud(rng, nt)
		// Include a coincident point: self interactions must zero out.
		src := append(randomCloud(rng, ns-1), trg[0], trg[1], trg[2])
		fast := make([]float64, nt*k.TargetDim()*ns*k.SourceDim())
		slow := make([]float64, len(fast))
		Matrix(k, trg, src, fast)
		genericMatrix(k, trg, src, slow)
		for i := range fast {
			if fast[i] != slow[i] {
				t.Fatalf("%s: specialized Matrix disagrees at %d: %v vs %v", k.Name(), i, fast[i], slow[i])
			}
		}
	}
}

// TestLaplaceP2PBodiesAgree holds laplaceP2P's AVX2 body to its Go loop
// bit for bit: every target and source count from 0 to 40 (full blocks
// of four and every tail), a 200×200 leaf pair, and inputs with a
// coincident source, ±0 and subnormal densities, NaN and ±Inf
// coordinates, and coordinates of 1e±150 and beyond, where r2 overflows
// to +Inf or underflows to 0 between distinct points. An FMA, a
// reciprocal square-root estimate, a re-association or a wrong r2 == 0
// mask fails it, and so does a store past the end of pot: three sentinel
// elements after it must keep their bits.
func TestLaplaceP2PBodiesAgree(t *testing.T) {
	if !cpu.AVX2 {
		t.Skip("CPU without AVX2: laplaceP2P runs only the Go body")
	}
	t.Cleanup(func() { cpu.AVX2 = true })
	rng := rand.New(rand.NewSource(29))
	coordSpecial := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1)}
	denSpecial := []float64{0, math.Copysign(0, -1), 5e-324, -4.9e-322, 2.2e-308, math.Inf(1), math.NaN()}
	scales := []float64{1, 1e150, 1e-150, 1e160, 1e-170}
	// cloud draws n points at one scale; with special set, about one
	// coordinate in 16 is NaN, ±Inf or ±0.
	cloud := func(n int, scale float64, special bool) []float64 {
		p := make([]float64, 3*n)
		for i := range p {
			p[i] = scale * rng.NormFloat64()
			if special && rng.Intn(16) == 0 {
				p[i] = coordSpecial[rng.Intn(len(coordSpecial))]
			}
		}
		return p
	}
	check := func(name string, trg, src, den []float64) {
		t.Helper()
		const tail = 3
		nt := len(trg) / 3
		pot := make([]float64, nt+tail)
		for i := range pot {
			pot[i] = rng.NormFloat64()
		}
		want := append([]float64(nil), pot...)
		cpu.AVX2 = false
		P2P(Laplace{}, trg, src, den, want[:nt])
		cpu.AVX2 = true
		P2P(Laplace{}, trg, src, den, pot[:nt])
		for i := range pot {
			if !sameFloatBits(pot[i], want[i]) {
				t.Fatalf("%s: pot[%d] = %v (%#x), Go loop %v (%#x)",
					name, i, pot[i], math.Float64bits(pot[i]), want[i], math.Float64bits(want[i]))
			}
		}
	}
	for nt := 0; nt <= 40; nt++ {
		for ns := 0; ns <= 40; ns++ {
			scale := scales[rng.Intn(len(scales))]
			special := rng.Intn(2) == 0
			trg, src := cloud(nt, scale, special), cloud(ns, scale, special)
			den := make([]float64, ns)
			for j := range den {
				den[j] = rng.NormFloat64()
				if special && rng.Intn(4) == 0 {
					den[j] = denSpecial[rng.Intn(len(denSpecial))]
				}
			}
			// A source on a target: the r2 == 0 pair both bodies skip.
			if nt > 0 && ns > 0 {
				i, j := rng.Intn(nt), rng.Intn(ns)
				copy(src[3*j:3*j+3], trg[3*i:3*i+3])
			}
			check(fmt.Sprintf("nt=%d ns=%d scale=%g special=%v", nt, ns, scale, special), trg, src, den)
		}
	}
	for _, scale := range scales {
		trg, src := cloud(200, scale, false), cloud(200, scale, false)
		copy(src[3*17:3*18], trg[3*101:3*102])
		check(fmt.Sprintf("200x200 scale=%g", scale), trg, src, randomCloud(rng, 200)[:200])
	}
}

// TestP2PAllocatesNothing: the Laplace vector body keeps its block
// buffers on the stack.
func TestP2PAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	trg, src := randomCloud(rng, 37), randomCloud(rng, 41)
	den, pot := make([]float64, 41), make([]float64, 37)
	if a := testing.AllocsPerRun(10, func() { P2P(Laplace{}, trg, src, den, pot) }); a != 0 {
		t.Errorf("Laplace P2P allocates %v times per call", a)
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
	P2P(k, trg, src, den, once)
	P2P(k, trg, src, den, pot)
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
		P2P(k, pts, pts, den, pot)
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
		P2P(k, trg, src, den, direct)
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
		P2P(Laplace{}, trg, src, den, pot)
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		P2P(NewStokes(1), trg, src, den, pot)
	}
}
