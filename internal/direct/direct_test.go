package direct

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/errs"
	"repro/internal/kernels"
)

func cloud(rng *rand.Rand, n int) []float64 {
	p := make([]float64, 3*n)
	for i := range p {
		p[i] = rng.NormFloat64()
	}
	return p
}

// naive is the textbook triple loop the blocked path must match.
func naive(k kernels.Kernel, trg, src, den []float64) []float64 {
	nt, ns := len(trg)/3, len(src)/3
	sd, td := k.SourceDim(), k.TargetDim()
	pot := make([]float64, nt*td)
	block := make([]float64, sd*td)
	for i := 0; i < nt; i++ {
		for j := 0; j < ns; j++ {
			k.Eval(trg[3*i]-src[3*j], trg[3*i+1]-src[3*j+1], trg[3*i+2]-src[3*j+2], block)
			for a := 0; a < td; a++ {
				for b := 0; b < sd; b++ {
					pot[i*td+a] += block[a*sd+b] * den[j*sd+b]
				}
			}
		}
	}
	return pot
}

func TestEvaluateMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, k := range []kernels.Kernel{kernels.Laplace{}, kernels.NewModLaplace(2), kernels.NewStokes(1)} {
		// Sizes straddling the block size.
		for _, n := range []int{1, 7, 255, 256, 300} {
			trg := cloud(rng, n)
			src := cloud(rng, n/2+1)
			den := make([]float64, (n/2+1)*k.SourceDim())
			for i := range den {
				den[i] = rng.NormFloat64()
			}
			got, err := Evaluate(k, trg, src, den)
			if err != nil {
				t.Fatal(err)
			}
			want := naive(k, trg, src, den)
			for i := range got {
				if math.Abs(got[i]-want[i]) > 1e-11*(math.Abs(want[i])+1) {
					t.Fatalf("%s n=%d: mismatch at %d: %v vs %v", k.Name(), n, i, got[i], want[i])
				}
			}
		}
	}
}

// TestValidation: input the summation cannot answer is invalid_input —
// ragged coordinates, a density of the wrong length, a NaN or ±Inf
// coordinate, and points spread so far that their squared distances
// overflow (which would sum to zeros).
func TestValidation(t *testing.T) {
	lap := kernels.Laplace{}
	pts := cloud(rand.New(rand.NewSource(5)), 40)
	scaled := append([]float64(nil), pts...)
	for i := range scaled {
		scaled[i] *= 1e160
	}
	den := make([]float64, 40)
	for _, tc := range []struct {
		name          string
		trg, src, den []float64
	}{
		{"malformed targets", []float64{1, 2}, nil, nil},
		{"wrong density length", nil, []float64{1, 2, 3}, []float64{1, 2}},
		{"NaN target", append([]float64{math.NaN(), 0, 0}, pts...), pts, den},
		{"+Inf source", pts, append(append([]float64(nil), pts[:117]...), math.Inf(1), 0, 0), den},
		{"squared distances overflow", scaled, scaled, den},
	} {
		_, err := Evaluate(lap, tc.trg, tc.src, tc.den)
		if code, _ := errs.CodeOf(err); code != errs.CodeInvalidInput {
			t.Errorf("%s: err = %v (code %q), want %q", tc.name, err, code, errs.CodeInvalidInput)
		}
	}
}

func TestEmptyInputs(t *testing.T) {
	got, err := Evaluate(kernels.Laplace{}, nil, nil, nil)
	if err != nil || len(got) != 0 {
		t.Errorf("empty evaluate: %v, %v", got, err)
	}
	// Targets without sources: zero potentials.
	got, err = Evaluate(kernels.Laplace{}, []float64{1, 2, 3}, nil, nil)
	if err != nil || len(got) != 1 || got[0] != 0 {
		t.Errorf("no-source evaluate: %v, %v", got, err)
	}
}
