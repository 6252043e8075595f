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
