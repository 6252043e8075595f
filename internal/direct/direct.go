// Package direct implements the O(N²) direct summation baseline the FMM
// is verified against and compared with. It is the "Direct
// implementation of this summation" of paper Section 2, blocked for
// cache friendliness.
package direct

import (
	"repro/internal/errs"
	"repro/internal/geom"
	"repro/internal/kernels"
)

// blockSize is the target tile edge for the blocked loops; 256 points of
// 3 coordinates keep both tiles comfortably in L1/L2.
const blockSize = 256

// Evaluate computes pot[i] = Σ_j G(trg_i, src_j) den_j by direct
// summation. den holds SourceDim components per source; the result holds
// TargetDim components per target. Self interactions (identical
// coordinates) contribute nothing, matching the FMM convention. Input it
// cannot answer is an invalid_input error (see check).
func Evaluate(k kernels.Kernel, trg, src, den []float64) ([]float64, error) {
	if err := check(k, trg, src, den); err != nil {
		return nil, err
	}
	sd, td := k.SourceDim(), k.TargetDim()
	nt, ns := len(trg)/3, len(src)/3
	pot := make([]float64, nt*td)
	block := make([]float64, sd*td)
	for tb := 0; tb < nt; tb += blockSize {
		te := min(tb+blockSize, nt)
		for sb := 0; sb < ns; sb += blockSize {
			se := min(sb+blockSize, ns)
			kernels.P2P(k,
				trg[3*tb:3*te],
				src[3*sb:3*se],
				[][]float64{den[sd*sb : sd*se]},
				[][]float64{pot[td*tb : td*te]},
				block,
			)
		}
	}
	return pot, nil
}

// check returns an invalid_input error for input the summation cannot
// answer: coordinates that are not whole x,y,z triples, a density of the
// wrong length, or points that break the domain rule of the FMM's octree
// (geom.CheckDomain) — a NaN or ±Inf coordinate, or a spread whose
// squared pair distances overflow, which would sum to zeros.
func check(k kernels.Kernel, trg, src, den []float64) error {
	if len(trg)%3 != 0 || len(src)%3 != 0 {
		return errs.New(errs.CodeInvalidInput, "direct: coordinates must be flat x,y,z slices")
	}
	if ns := len(src) / 3; len(den) != ns*k.SourceDim() {
		return errs.Newf(errs.CodeInvalidInput, "direct: density length %d, want %d", len(den), ns*k.SourceDim())
	}
	lo, hi, finite := geom.Bounds(trg, src)
	_, hw := geom.Cube(lo, hi)
	if err := geom.CheckDomain(finite, hw); err != nil {
		return errs.Newf(errs.CodeInvalidInput, "direct: %v", err)
	}
	return nil
}
