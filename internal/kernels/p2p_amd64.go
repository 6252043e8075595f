package kernels

// laplaceP2PAVX2 runs laplaceP2P's vector body over the leading targets
// in whole blocks of four and returns how many targets it did; the Go
// loop takes the rest. Each block's coordinates are transposed into
// x, y, z rows on the stack, so no call allocates.
func laplaceP2PAVX2(trg, src, den, pot []float64) int {
	nt, ns := len(trg)/3, len(src)/3
	src, den = src[:3*ns], den[:ns]
	var blk [12]float64
	var sum [4]float64
	i := 0
	for ; i+4 <= nt; i += 4 {
		t := trg[3*i : 3*i+12]
		blk = [12]float64{
			t[0], t[3], t[6], t[9],
			t[1], t[4], t[7], t[10],
			t[2], t[5], t[8], t[11],
		}
		laplaceSums4AVX2(&blk, src, den, &sum)
		p := pot[i : i+4]
		for k, s := range sum {
			p[k] += fourPiInv * s
		}
	}
	return i
}

// laplaceSums4AVX2 sets sum[k] = Σ_j den[j]/|t_k − src_j| over r2 ≠ 0 for
// the four targets t (x row, y row, z row), summing j in order.
//
//go:noescape
func laplaceSums4AVX2(t *[12]float64, src, den []float64, sum *[4]float64)

// stokesP2PAVX2 runs stokesP2P's vector body for the right-hand sides of
// one block (at most rhsBlock) over the leading targets in whole blocks
// of four and returns how many targets it did; the Go loop takes the
// rest. The coordinates, the density pointers and the sums sit in stack
// arrays, so no call allocates.
func stokesP2PAVX2(c float64, trg, src []float64, dens, pots [][]float64) int {
	nt, ns := len(trg)/3, len(src)/3
	if ns == 0 || len(dens) == 0 {
		return 0
	}
	src = src[:3*ns]
	var den [rhsBlock]*float64
	for q, d := range dens {
		_ = d[3*ns-1] // a density for every source, as the Go loop requires
		den[q] = &d[0]
	}
	var blk [12]float64
	var sum [rhsBlock * 12]float64
	i := 0
	for ; i+4 <= nt; i += 4 {
		t := trg[3*i : 3*i+12]
		blk = [12]float64{
			t[0], t[3], t[6], t[9],
			t[1], t[4], t[7], t[10],
			t[2], t[5], t[8], t[11],
		}
		stokesSums4AVX2(&blk, src, &den, len(dens), &sum)
		for q, pot := range pots {
			s, p := sum[12*q:12*q+12], pot[3*i:3*i+12]
			for k := 0; k < 4; k++ {
				p[3*k] += c * s[k]
				p[3*k+1] += c * s[4+k]
				p[3*k+2] += c * s[8+k]
			}
		}
	}
	return i
}

// stokesSums4AVX2 sets, for the four targets t (x row, y row, z row) and
// each of the first nq right-hand sides q (1 ≤ nq ≤ rhsBlock),
// sum[12q:12q+12] to the Stokes sums (x row, y row, z row) of
// stokesP2P's Go loop over the sources in order; den[q] points at vector
// q's densities, three per source.
//
//go:noescape
func stokesSums4AVX2(t *[12]float64, src []float64, den *[rhsBlock]*float64, nq int, sum *[rhsBlock * 12]float64)
