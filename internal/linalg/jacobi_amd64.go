package linalg

// pairs8AVX2 rotates the pairs (a, t−a), (a+1, t−a−1), … of antidiagonal
// t, up to the last one, in whole groups of eight and returns the first
// pair it left; pair does the rest. The assembly forms the inner products
// over the rows below m&^3; the last m%4 rows are added here, in the order
// of pair's loop, before rotation decides each pair in turn.
func (w *jacobiWork) pairs8AVX2(t, a, last int, off *float64) int {
	m := w.m
	stride := m + len(w.cols)
	var dots [3][8]float64
	for ; a+7 <= last; a += 8 {
		q := t - a
		jacobiDots8AVX2(w.slab[a*stride:(a+8)*stride], w.slab[(q-7)*stride:(q+1)*stride], stride, m&^3, &dots)
		for k := 0; k < 8; k++ {
			cp, cq := w.cols[a+k], w.cols[q-k]
			alpha, beta, gamma := dots[0][k], dots[1][k], dots[2][k]
			for i := m &^ 3; i < m; i++ {
				vp, vq := cp[i], cq[i]
				alpha += vp * vp
				beta += vq * vq
				gamma += vp * vq
			}
			if c, s, ok := rotation(alpha, beta, gamma, off); ok {
				rotate(cp, cq, c, s)
			}
		}
	}
	return a
}

// rotateAVX2 rotates the rows of cp and cq below len(cp)&^3 and returns
// how many it did.
func rotateAVX2(cp, cq []float64, c, s float64) int {
	n := len(cp) &^ 3
	jacobiRotAVX2(cp[:n], cq[:n], c, s)
	return n
}

// jacobiDots8AVX2 sets, for the eight lanes k, dots[0][k] = Σ p_k[i]²,
// dots[1][k] = Σ q_k[i]² and dots[2][k] = Σ p_k[i]·q_k[i] over the rows
// i < rows, a multiple of four, summing i in order from +0. p_k is column
// k of p and q_k column 7−k of q, each column stride elements long.
//
//go:noescape
func jacobiDots8AVX2(p, q []float64, stride, rows int, dots *[3][8]float64)

// jacobiRotAVX2 sets p[i], q[i] = c·p[i] − s·q[i], s·p[i] + c·q[i] for
// i < len(p), a multiple of four.
//
//go:noescape
func jacobiRotAVX2(p, q []float64, c, s float64)
