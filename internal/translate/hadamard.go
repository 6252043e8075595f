package translate

// hadamardAddGeneric accumulates dst[i] += t[i]*s[i] in Go. It is
// hadamardAdd's only body on builds other than amd64 and on CPUs without
// AVX2, and the reference the vector body is tested against bit for bit.
func hadamardAddGeneric(dst, t, s []complex128) {
	t = t[:len(dst)]
	s = s[:len(dst)]
	for i := range dst {
		dst[i] += t[i] * s[i]
	}
}

// accumulateBlockGeneric is accumulateBlock in Go, over the elements
// lo ≤ i < gl of every grid: for every right-hand side q < nq and target
// component a < td it adds t[a*sd+b][i] * src[(q*sd+b)*gl+i] into
// acc[(q*td+a)*gl+i] over b < sd in order, the element's running sum held
// in a variable between the adds. Each element so sees the multiplies,
// adds and roundings of one hadamardAddGeneric call per (a, b, q). It is
// accumulateBlock's only body off amd64, on CPUs without AVX2 and for
// blocks wider than 3×3, the vector body's odd last element, and the
// reference the vector body is tested against bit for bit.
func accumulateBlockGeneric(acc, src []complex128, t [][]complex128, gl, lo, nq, td, sd int) {
	for a := 0; a < td; a++ {
		row := t[a*sd : (a+1)*sd]
		for q := 0; q < nq; q++ {
			d := acc[(q*td+a)*gl : (q*td+a+1)*gl]
			s := src[q*sd*gl : (q+1)*sd*gl]
			for i := lo; i < gl; i++ {
				v := d[i]
				for b, tg := range row {
					v += tg[i] * s[b*gl+i]
				}
				d[i] = v
			}
		}
	}
}
